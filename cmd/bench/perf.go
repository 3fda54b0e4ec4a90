package main

// The -perf mode: fixed kernel suites over deterministic instances that
// feed the BENCH_*.json perf trajectories: a run is compared against a
// stored baseline with -baseline, and the combined before/after
// trajectory is what gets committed (see docs/PERFORMANCE.md).
//
// Two kernel groups exist, selected with -group:
//
//   - graphcore (this file): the graph substrate itself (build, clone,
//     canonical hashing) and the two solver hot paths that dominate
//     service latency (IRC allocation, greedy spilling).
//   - service (perfservice.go): the end-to-end request path — JSON
//     decode → canonicalization → portfolio race → encode — one request
//     at a time against an in-process handler.
//
// Each suite is intentionally small and fixed: the same named kernels,
// the same seeds, the same instance sizes, so ns/op numbers from
// different commits are comparable. Sizes change only with a suite
// version bump. Alongside ns/op, allocs/op and B/op are compared against
// the baseline: the pooled solve path (see "Request path & pooling" in
// docs/PERFORMANCE.md) gates on alloc regressions, not just time.

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strings"
	"testing"

	"regcoal/internal/graph"
	"regcoal/internal/greedy"
	"regcoal/internal/regalloc"
	"regcoal/internal/spill"
)

// perfSuiteVersion bumps whenever kernel names, seeds, or instance sizes
// change, invalidating cross-version comparisons.
const perfSuiteVersion = 1

// PerfKernel is one measured kernel of a perf run.
type PerfKernel struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// PerfRun is the result of one -perf invocation.
type PerfRun struct {
	Suite   string       `json:"suite"`
	Version int          `json:"version"`
	Label   string       `json:"label"`
	Go      string       `json:"go"`
	Quick   bool         `json:"quick"`
	Kernels []PerfKernel `json:"kernels"`
}

// PerfTrajectory is the committed before/after shape of BENCH_*.json.
// Speedup is baseline/current ns per op (higher = faster now); AllocRatio
// and BytesRatio are current/baseline allocations per op (lower = leaner
// now) — the three axes the perf gates check.
type PerfTrajectory struct {
	Suite      string             `json:"suite"`
	Version    int                `json:"version"`
	Unit       string             `json:"unit"`
	Baseline   *PerfRun           `json:"baseline"`
	Current    *PerfRun           `json:"current"`
	Speedup    map[string]float64 `json:"speedup"`
	AllocRatio map[string]float64 `json:"alloc_ratio,omitempty"`
	BytesRatio map[string]float64 `json:"bytes_ratio,omitempty"`
}

// perfInstance is one deterministic graph the kernels run over.
type perfInstance struct {
	name   string
	f      *graph.File // graph + the tight k the IRC kernel allocates at
	spillK int         // a deliberately short k so the spill kernels evict
	edges  [][2]graph.V
}

// perfInstances builds the fixed instance set. Seeds are constants;
// sizes shrink under quick so CI smoke stays fast.
func perfInstances(quick bool) []perfInstance {
	scale := func(n int) int {
		if quick {
			return n / 4
		}
		return n
	}
	type spec struct {
		name string
		seed int64
		gen  func(rng *rand.Rand, n int) *graph.Graph
		n    int
	}
	specs := []spec{
		{"dense300-p50", 0x5eed0001, func(rng *rand.Rand, n int) *graph.Graph {
			return graph.RandomER(rng, n, 0.50)
		}, scale(300)},
		{"dense500-p30", 0x5eed0002, func(rng *rand.Rand, n int) *graph.Graph {
			return graph.RandomER(rng, n, 0.30)
		}, scale(500)},
		{"chordal400", 0x5eed0003, func(rng *rand.Rand, n int) *graph.Graph {
			return graph.RandomChordal(rng, n, n/2+1, 8)
		}, scale(400)},
		{"interval500", 0x5eed0004, func(rng *rand.Rand, n int) *graph.Graph {
			return graph.RandomInterval(rng, n, 2*n, n/8+1)
		}, scale(500)},
	}
	insts := make([]perfInstance, 0, len(specs))
	for _, s := range specs {
		rng := rand.New(rand.NewSource(s.seed))
		g := s.gen(rng, s.n)
		graph.SprinkleAffinities(rng, g, s.n/2, 8)
		col := greedy.ColoringNumber(g)
		if col < 2 {
			col = 2
		}
		spillK := col / 2
		if spillK < 2 {
			spillK = 2
		}
		insts = append(insts, perfInstance{
			name:   s.name,
			f:      &graph.File{G: g, K: col},
			spillK: spillK,
			edges:  g.Edges(),
		})
	}
	return insts
}

// kernel is one named op of a suite. Each op is one full unit of work
// (testing.Benchmark supplies the iteration loop).
type kernel struct {
	name string
	op   func()
}

// measureKernels benchmarks each kernel in order with allocation
// reporting.
func measureKernels(kernels []kernel) []PerfKernel {
	out := make([]PerfKernel, 0, len(kernels))
	for _, kr := range kernels {
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				kr.op()
			}
		})
		out = append(out, PerfKernel{
			Name:        kr.name,
			NsPerOp:     float64(res.T.Nanoseconds()) / float64(res.N),
			AllocsPerOp: res.AllocsPerOp(),
			BytesPerOp:  res.AllocedBytesPerOp(),
		})
	}
	return out
}

// perfKernels enumerates the graphcore kernel suite.
func perfKernels(insts []perfInstance) []PerfKernel {
	var kernels []kernel
	for i := range insts {
		inst := insts[i]
		g, k := inst.f.G, inst.f.K
		n := g.N()
		edges := inst.edges
		spillFile := &graph.File{G: g, K: inst.spillK}
		kernels = append(kernels,
			kernel{"build/" + inst.name, func() {
				h := graph.New(n)
				for _, e := range edges {
					h.AddEdge(e[0], e[1])
				}
			}},
			kernel{"clone/" + inst.name, func() {
				g.Clone()
			}},
			kernel{"irc/" + inst.name, func() {
				regalloc.NewIRC(g, k).Run()
			}},
			kernel{"spill-greedy/" + inst.name, func() {
				if _, err := spill.Greedy(spillFile, nil); err != nil {
					panic(err)
				}
			}},
			kernel{"spill-inc/" + inst.name, func() {
				if _, err := spill.Incremental(spillFile, nil); err != nil {
					panic(err)
				}
			}},
			kernel{"canon/" + inst.name, func() {
				graph.CanonicalForm(inst.f)
			}},
		)
	}
	return measureKernels(kernels)
}

// runPerf executes the selected suite and writes the run (or, with a
// baseline, the full before/after trajectory) as JSON to w, with a
// human-readable table on stderr.
func runPerf(group string, quick bool, label, baselinePath string, w io.Writer, stderr io.Writer) error {
	version := perfSuiteVersion
	if group == "service" {
		version = serviceSuiteVersion
	} else if group != "graphcore" {
		return fmt.Errorf("perf: unknown kernel group %q (want graphcore or service)", group)
	}
	// Validate the baseline before timing anything: the suite takes
	// minutes at full sizes, an incomparable baseline should fail fast.
	var baseline *PerfRun
	if baselinePath != "" {
		var err error
		if baseline, err = loadPerfRun(baselinePath); err != nil {
			return err
		}
		if baseline.Suite != group {
			return fmt.Errorf("perf: baseline %s is suite %q, this run is %q — not comparable",
				baselinePath, baseline.Suite, group)
		}
		if baseline.Quick != quick {
			return fmt.Errorf("perf: baseline %s is quick=%v, this run is quick=%v — not comparable",
				baselinePath, baseline.Quick, quick)
		}
		if baseline.Version != version {
			return fmt.Errorf("perf: baseline suite version %d != current %d — not comparable",
				baseline.Version, version)
		}
	}

	var kernels []PerfKernel
	if group == "service" {
		var err error
		if kernels, err = serviceKernels(quick); err != nil {
			return err
		}
	} else {
		kernels = perfKernels(perfInstances(quick))
	}
	run := &PerfRun{
		Suite:   group,
		Version: version,
		Label:   label,
		Go:      runtime.Version(),
		Quick:   quick,
		Kernels: kernels,
	}

	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	fmt.Fprintf(stderr, "%-32s %14s %10s %12s\n", "kernel", "ns/op", "allocs/op", "B/op")
	base := map[string]PerfKernel{}
	if baseline != nil {
		for _, k := range baseline.Kernels {
			base[k.Name] = k
		}
	}
	for _, k := range run.Kernels {
		line := fmt.Sprintf("%-32s %14.0f %10d %12d", k.Name, k.NsPerOp, k.AllocsPerOp, k.BytesPerOp)
		if b, ok := base[k.Name]; ok && k.NsPerOp > 0 {
			line += fmt.Sprintf("   %6.2fx ns", b.NsPerOp/k.NsPerOp)
			if b.AllocsPerOp > 0 {
				line += fmt.Sprintf("  %.2fx allocs", float64(k.AllocsPerOp)/float64(b.AllocsPerOp))
			}
		}
		fmt.Fprintln(stderr, line)
	}
	if baseline == nil {
		return enc.Encode(run)
	}
	traj := buildTrajectory(baseline, run)
	for _, reg := range allocRegressions(traj) {
		fmt.Fprintf(stderr, "perf: WARNING: %s\n", reg)
	}
	return enc.Encode(traj)
}

// buildTrajectory combines a baseline and a current run into the
// committed before/after shape, with per-kernel time and allocation
// ratios.
func buildTrajectory(baseline, run *PerfRun) *PerfTrajectory {
	base := map[string]PerfKernel{}
	for _, k := range baseline.Kernels {
		base[k.Name] = k
	}
	traj := &PerfTrajectory{
		Suite:      run.Suite,
		Version:    run.Version,
		Unit:       "ns/op",
		Baseline:   baseline,
		Current:    run,
		Speedup:    map[string]float64{},
		AllocRatio: map[string]float64{},
		BytesRatio: map[string]float64{},
	}
	for _, k := range run.Kernels {
		b, ok := base[k.Name]
		if !ok {
			continue
		}
		if k.NsPerOp > 0 {
			traj.Speedup[k.Name] = round2(b.NsPerOp / k.NsPerOp)
		}
		if b.AllocsPerOp > 0 {
			traj.AllocRatio[k.Name] = round2(float64(k.AllocsPerOp) / float64(b.AllocsPerOp))
		} else if k.AllocsPerOp == 0 {
			traj.AllocRatio[k.Name] = 0
		}
		if b.BytesPerOp > 0 {
			traj.BytesRatio[k.Name] = round2(float64(k.BytesPerOp) / float64(b.BytesPerOp))
		} else if k.BytesPerOp == 0 {
			traj.BytesRatio[k.Name] = 0
		}
	}
	return traj
}

// pooledKernel reports whether a kernel runs on the pooled solve path —
// the kernels whose allocs/op the gate protects against regression.
func pooledKernel(name string) bool {
	for _, p := range []string{"irc/", "spill-greedy/", "spill-inc/", "svc-solve/", "svc-cached/", "svc-spill/", "svc-delta/"} {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// allocRegressions lists pooled kernels whose allocs/op or B/op regressed
// more than 10% against the trajectory's baseline. An empty result is the
// alloc gate passing.
func allocRegressions(traj *PerfTrajectory) []string {
	var out []string
	if traj.Baseline == nil || traj.Current == nil {
		return out
	}
	base := map[string]PerfKernel{}
	for _, k := range traj.Baseline.Kernels {
		base[k.Name] = k
	}
	for _, k := range traj.Current.Kernels {
		if !pooledKernel(k.Name) {
			continue
		}
		b, ok := base[k.Name]
		if !ok {
			continue
		}
		// A bare 10% ratio misfires in both directions: a tiny baseline
		// turns one extra alloc into "a regression", and a zero-alloc
		// baseline — the pooled steady state this suite drives toward —
		// makes ANY regression invisible as a ratio. Gate on ratio plus
		// a small absolute slack instead: 1.1×baseline + 8 allocs
		// (+1 KiB for bytes) covers both.
		if float64(k.AllocsPerOp) > 1.1*float64(b.AllocsPerOp)+8 {
			out = append(out, fmt.Sprintf("%s: allocs/op regressed %d → %d (beyond 1.1×baseline+8)", k.Name, b.AllocsPerOp, k.AllocsPerOp))
		}
		if float64(k.BytesPerOp) > 1.1*float64(b.BytesPerOp)+1024 {
			out = append(out, fmt.Sprintf("%s: B/op regressed %d → %d (beyond 1.1×baseline+1KiB)", k.Name, b.BytesPerOp, k.BytesPerOp))
		}
	}
	return out
}

func round2(x float64) float64 {
	return float64(int64(x*100+0.5)) / 100
}

// loadPerfRun reads a run file — either a bare PerfRun or a trajectory
// (in which case the trajectory's Current run is the comparison base, so
// future PRs can pass the committed BENCH_*.json directly).
func loadPerfRun(path string) (*PerfRun, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var traj PerfTrajectory
	if err := json.Unmarshal(data, &traj); err == nil && traj.Current != nil {
		return traj.Current, nil
	}
	var run PerfRun
	if err := json.Unmarshal(data, &run); err != nil {
		return nil, fmt.Errorf("perf: %s is neither a run nor a trajectory: %w", path, err)
	}
	if run.Suite == "" {
		return nil, fmt.Errorf("perf: %s has no suite field", path)
	}
	return &run, nil
}

// perfKernelNames lists the kernel names of the suite without running
// anything (used by tests to pin the suite shape).
func perfKernelNames(insts []perfInstance) []string {
	var names []string
	for _, inst := range insts {
		for _, k := range []string{"build", "clone", "irc", "spill-greedy", "spill-inc", "canon"} {
			names = append(names, k+"/"+inst.name)
		}
	}
	sort.Strings(names)
	return names
}
