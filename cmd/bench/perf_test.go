package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The perf suite itself takes ~seconds per kernel under testing.Benchmark,
// so these tests pin the plumbing — instance determinism, suite shape,
// run/trajectory (de)serialization — without timing anything.

func TestPerfInstancesDeterministic(t *testing.T) {
	a := perfInstances(true)
	b := perfInstances(true)
	if len(a) != len(b) || len(a) == 0 {
		t.Fatalf("instance counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].name != b[i].name {
			t.Fatalf("instance %d name %q vs %q", i, a[i].name, b[i].name)
		}
		if a[i].f.G.N() != b[i].f.G.N() || a[i].f.G.E() != b[i].f.G.E() {
			t.Fatalf("%s: graphs differ across builds (n %d/%d, e %d/%d)",
				a[i].name, a[i].f.G.N(), b[i].f.G.N(), a[i].f.G.E(), b[i].f.G.E())
		}
		if a[i].f.K != b[i].f.K || a[i].spillK != b[i].spillK {
			t.Fatalf("%s: k differs across builds", a[i].name)
		}
		if a[i].spillK >= a[i].f.K && a[i].f.K > 4 {
			t.Fatalf("%s: spillK %d not below tight k %d — spill kernels would be no-ops",
				a[i].name, a[i].spillK, a[i].f.K)
		}
		if err := a[i].f.G.Validate(); err != nil {
			t.Fatalf("%s: %v", a[i].name, err)
		}
	}
}

func TestPerfSuiteShape(t *testing.T) {
	insts := perfInstances(true)
	names := perfKernelNames(insts)
	want := 6 * len(insts) // build, clone, irc, spill-greedy, spill-inc, canon
	if len(names) != want {
		t.Fatalf("suite has %d kernels, want %d: %v", len(names), want, names)
	}
	seen := map[string]bool{}
	for _, n := range names {
		if seen[n] {
			t.Fatalf("duplicate kernel name %s", n)
		}
		seen[n] = true
	}
}

func TestLoadPerfRunRoundTrip(t *testing.T) {
	dir := t.TempDir()
	run := &PerfRun{
		Suite:   "graphcore",
		Version: perfSuiteVersion,
		Label:   "unit",
		Kernels: []PerfKernel{{Name: "irc/x", NsPerOp: 100, AllocsPerOp: 3, BytesPerOp: 64}},
	}
	runPath := filepath.Join(dir, "run.json")
	data, _ := json.Marshal(run)
	if err := os.WriteFile(runPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := loadPerfRun(runPath)
	if err != nil {
		t.Fatal(err)
	}
	if got.Label != "unit" || len(got.Kernels) != 1 || got.Kernels[0].NsPerOp != 100 {
		t.Fatalf("bare run round-trip mangled: %+v", got)
	}

	// A trajectory file loads as its Current run, so the committed
	// BENCH_*.json can be passed to -baseline directly.
	traj := &PerfTrajectory{
		Suite:    "graphcore",
		Version:  perfSuiteVersion,
		Unit:     "ns/op",
		Baseline: run,
		Current: &PerfRun{Suite: "graphcore", Version: perfSuiteVersion, Label: "current",
			Kernels: []PerfKernel{{Name: "irc/x", NsPerOp: 50}}},
		Speedup: map[string]float64{"irc/x": 2},
	}
	trajPath := filepath.Join(dir, "traj.json")
	data, _ = json.Marshal(traj)
	if err := os.WriteFile(trajPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err = loadPerfRun(trajPath)
	if err != nil {
		t.Fatal(err)
	}
	if got.Label != "current" || got.Kernels[0].NsPerOp != 50 {
		t.Fatalf("trajectory load did not pick Current: %+v", got)
	}

	if _, err := loadPerfRun(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("loading a missing file succeeded")
	}
	bad := filepath.Join(dir, "bad.json")
	os.WriteFile(bad, []byte(`{"not":"a run"}`), 0o644)
	if _, err := loadPerfRun(bad); err == nil {
		t.Fatal("loading a non-run JSON succeeded")
	}
}

// TestCommittedTrajectoryWellFormed keeps BENCH_graphcore.json honest:
// parseable, suite/version matching this binary, baseline+current
// present, and the dense IRC+spill kernels at the ≥2x acceptance gate.
func TestCommittedTrajectoryWellFormed(t *testing.T) {
	path := filepath.Join("..", "..", "BENCH_graphcore.json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Skipf("no committed trajectory: %v", err)
	}
	var traj PerfTrajectory
	if err := json.Unmarshal(data, &traj); err != nil {
		t.Fatalf("BENCH_graphcore.json does not parse: %v", err)
	}
	if traj.Suite != "graphcore" || traj.Version != perfSuiteVersion {
		t.Fatalf("trajectory is %s v%d, binary expects graphcore v%d — bump or regenerate",
			traj.Suite, traj.Version, perfSuiteVersion)
	}
	if traj.Baseline == nil || traj.Current == nil || len(traj.Speedup) == 0 {
		t.Fatal("trajectory missing baseline/current/speedup")
	}
	gated := 0
	for kernel, s := range traj.Speedup {
		op, inst, ok := strings.Cut(kernel, "/")
		if !ok {
			t.Errorf("malformed kernel name %q", kernel)
			continue
		}
		dense := strings.HasPrefix(inst, "dense")
		if dense && (op == "irc" || op == "spill-greedy" || op == "spill-inc") {
			gated++
			if s < 2 {
				t.Errorf("%s speedup %.2f below the 2x acceptance gate", kernel, s)
			}
		}
	}
	if gated == 0 {
		t.Error("no dense IRC/spill kernels found in the trajectory")
	}
}

func TestServiceSuiteShape(t *testing.T) {
	names := serviceKernelNames()
	want := 4*len(serviceFamilies) + len(spillFamilies) // decode/solve/cached/delta + spill
	if len(names) != want {
		t.Fatalf("service suite has %d kernels, want %d: %v", len(names), want, names)
	}
	seen := map[string]bool{}
	for _, n := range names {
		if seen[n] {
			t.Fatalf("duplicate kernel name %s", n)
		}
		seen[n] = true
		if !strings.HasPrefix(n, "svc-") {
			t.Fatalf("service kernel %q lacks the svc- prefix", n)
		}
	}
}

func TestServiceInstancesDeterministic(t *testing.T) {
	a, err := serviceInstances(true)
	if err != nil {
		t.Fatal(err)
	}
	b, err := serviceInstances(true)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) || len(a) != len(serviceFamilies) {
		t.Fatalf("instance counts: %d vs %d (want %d)", len(a), len(b), len(serviceFamilies))
	}
	for i := range a {
		if a[i].family != b[i].family {
			t.Fatalf("instance %d family %q vs %q", i, a[i].family, b[i].family)
		}
		if string(a[i].solveBody) != string(b[i].solveBody) || string(a[i].cacheBody) != string(b[i].cacheBody) {
			t.Fatalf("%s: request bodies differ across builds", a[i].family)
		}
		if a[i].file.G.N() == 0 {
			t.Fatalf("%s: empty instance", a[i].family)
		}
	}
}

// TestAllocRegressionGate pins the >10% allocs/op gate logic on the
// pooled kernels: regressions fail, improvements and non-pooled kernels
// pass, tiny baselines are ignored.
func TestAllocRegressionGate(t *testing.T) {
	base := &PerfRun{Suite: "service", Version: serviceSuiteVersion, Kernels: []PerfKernel{
		{Name: "svc-solve/chordal", NsPerOp: 100, AllocsPerOp: 1000, BytesPerOp: 100000},
		{Name: "svc-decode/chordal", NsPerOp: 10, AllocsPerOp: 100, BytesPerOp: 1000},
		{Name: "irc/dense", NsPerOp: 50, AllocsPerOp: 4, BytesPerOp: 64},
	}}
	cur := &PerfRun{Suite: "service", Version: serviceSuiteVersion, Kernels: []PerfKernel{
		{Name: "svc-solve/chordal", NsPerOp: 90, AllocsPerOp: 1200, BytesPerOp: 90000}, // 20% alloc regression
		{Name: "svc-decode/chordal", NsPerOp: 9, AllocsPerOp: 500, BytesPerOp: 900},    // not a pooled kernel
		{Name: "irc/dense", NsPerOp: 40, AllocsPerOp: 8, BytesPerOp: 64},               // within absolute slack: ignored
	}}
	traj := buildTrajectory(base, cur)
	regs := allocRegressions(traj)
	if len(regs) != 1 || !strings.Contains(regs[0], "svc-solve/chordal") {
		t.Fatalf("gate found %v, want exactly the svc-solve alloc regression", regs)
	}
	if traj.AllocRatio["svc-solve/chordal"] != 1.2 {
		t.Fatalf("alloc ratio = %v, want 1.2", traj.AllocRatio["svc-solve/chordal"])
	}
	if traj.BytesRatio["svc-solve/chordal"] != 0.9 {
		t.Fatalf("bytes ratio = %v, want 0.9", traj.BytesRatio["svc-solve/chordal"])
	}

	fixed := &PerfRun{Suite: "service", Version: serviceSuiteVersion, Kernels: []PerfKernel{
		{Name: "svc-solve/chordal", NsPerOp: 50, AllocsPerOp: 200, BytesPerOp: 20000},
	}}
	if regs := allocRegressions(buildTrajectory(base, fixed)); len(regs) != 0 {
		t.Fatalf("improvement flagged as regression: %v", regs)
	}

	// A zero-alloc baseline — the pooled steady state — must still gate:
	// ratios are undefined, but the absolute-slack term catches it.
	zeroBase := &PerfRun{Suite: "service", Version: serviceSuiteVersion, Kernels: []PerfKernel{
		{Name: "irc/dense", NsPerOp: 50, AllocsPerOp: 0, BytesPerOp: 0},
	}}
	regressed := &PerfRun{Suite: "service", Version: serviceSuiteVersion, Kernels: []PerfKernel{
		{Name: "irc/dense", NsPerOp: 50, AllocsPerOp: 10000, BytesPerOp: 1 << 20},
	}}
	if regs := allocRegressions(buildTrajectory(zeroBase, regressed)); len(regs) != 2 {
		t.Fatalf("zero-alloc baseline regression not caught: %v", regs)
	}
}

// TestCommittedServiceTrajectoryWellFormed keeps BENCH_service.json
// honest: parseable, suite/version matching this binary, and the pooled
// request-path kernels at the acceptance gate. The v2 trajectory's
// baseline is the pre-session serving tier re-measured on the same
// machine as the current run (cross-machine ns ratios are noise; the
// pre-pooling → pooled story this file carried at v1 is recorded in
// CHANGES.md). Allocation counts are deterministic, so the allocs/op
// side is strict: nothing on the pooled path may regress beyond the
// gate's slack, and the untouched solve/spill kernels must not allocate
// more than baseline at all. Wall-clock on multi-millisecond racing
// kernels varies ~±15% run to run even on one machine, so the ns/op
// side only asserts no kernel regressed beyond that noise floor. The
// session PR's acceptance rides here too: the warm-session svc-delta
// kernel must beat the fresh-solve svc-solve kernel on at least 3
// families.
func TestCommittedServiceTrajectoryWellFormed(t *testing.T) {
	path := filepath.Join("..", "..", "BENCH_service.json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Skipf("no committed service trajectory: %v", err)
	}
	var traj PerfTrajectory
	if err := json.Unmarshal(data, &traj); err != nil {
		t.Fatalf("BENCH_service.json does not parse: %v", err)
	}
	if traj.Suite != "service" || traj.Version != serviceSuiteVersion {
		t.Fatalf("trajectory is %s v%d, binary expects service v%d — bump or regenerate",
			traj.Suite, traj.Version, serviceSuiteVersion)
	}
	if traj.Baseline == nil || traj.Current == nil || len(traj.Speedup) == 0 || len(traj.AllocRatio) == 0 {
		t.Fatal("trajectory missing baseline/current/speedup/alloc_ratio")
	}
	if regs := allocRegressions(&traj); len(regs) > 0 {
		t.Errorf("alloc gate: %v", regs)
	}
	gated := 0
	for kernel, ratio := range traj.AllocRatio {
		if !strings.HasPrefix(kernel, "svc-solve/") && !strings.HasPrefix(kernel, "svc-spill/") {
			continue
		}
		gated++
		if ratio > 1 {
			t.Errorf("%s: allocs/op ratio %.2f, want <= 1 (pooled path must not allocate more)", kernel, ratio)
		}
		if s := traj.Speedup[kernel]; s < 0.85 {
			t.Errorf("%s: speedup %.2f, regressed beyond the ~±15%% run-to-run noise", kernel, s)
		}
	}
	if gated == 0 {
		t.Error("no svc-solve/svc-spill kernels found in the trajectory")
	}
	// The delta-session acceptance: per family, one warm-session delta
	// apply must be cheaper than re-solving the instance from scratch,
	// on at least 3 families.
	cur := map[string]PerfKernel{}
	for _, k := range traj.Current.Kernels {
		cur[k.Name] = k
	}
	deltaWins, deltaKernels := 0, 0
	for _, f := range serviceFamilies {
		d, okD := cur["svc-delta/"+f]
		s, okS := cur["svc-solve/"+f]
		if !okD {
			t.Errorf("current run is missing svc-delta/%s", f)
			continue
		}
		deltaKernels++
		if okS && d.NsPerOp < s.NsPerOp {
			deltaWins++
		}
	}
	if deltaKernels > 0 && deltaWins < 3 {
		t.Errorf("svc-delta beats svc-solve on %d families, want >= 3", deltaWins)
	}
}
