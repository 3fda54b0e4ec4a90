// Command servebench is the repository's end-to-end serving benchmark. It
// assembles the coalescing service in process — one service.Server, or a
// router over three R=2 workers — on loopback listeners, drives it with
// two closed-loop clients, checks every answer, and reports end-to-end
// metrics or, traced, a per-layer breakdown of where the time went.
//
// One workload run, as a regression check invokes it (the last line
// of standard output is a JSON result):
//
//	servebench -workload hot-cluster -seed 1 -seconds 25 -trace 0
//
// Without -workload it runs every workload, each -repeat times untraced
// plus once traced at a quarter of -seconds, in child processes, and
// prints each metric's median and quartiles against the bounds in
// BENCHMARK.json. See README.md.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// setupReps is how many times a run sets its workload up; setup_s is the
// median.
const setupReps = 5

func main() {
	workload := flag.String("workload", "", "run one workload (hot-cluster, hot-single, cold-cluster, edit-cluster) and print its JSON result; empty runs the multi-workload report")
	seed := flag.Int64("seed", 1, "input seed: the relabeling of every graph and script, and the request order")
	seconds := flag.Float64("seconds", 25, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 reports the per-layer metrics of a traced run instead of the end-to-end metrics")
	spans := flag.String("spans", "", "traced runs: write <workload>.spans.jsonl into this directory")
	repeat := flag.Int("repeat", 1, "report: untraced runs per workload, on seeds seed, seed+1, ...")
	config := flag.String("config", "BENCHMARK.json", "report: benchmark definition holding the bounds")
	flag.Parse()

	if *workload == "" {
		ok, err := report(os.Stdout, *config, *seed, *seconds, *repeat, *spans)
		if err != nil {
			fmt.Fprintln(os.Stderr, "servebench:", err)
			os.Exit(2)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	w, err := lookupWorkload(*workload)
	if err == nil && (*seconds <= 0 || (*trace != 0 && *trace != 1)) {
		err = errors.New("-seconds must be positive and -trace 0 or 1")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(2)
	}
	// The servers size their worker pools and admission lanes by
	// GOMAXPROCS; pinning it to the client count gives every machine the
	// reference VM's topology.
	runtime.GOMAXPROCS(clients)
	res, err := runWorkload(options{w: w, seed: *seed, seconds: *seconds, trace: *trace == 1, spansDir: *spans, setupReps: setupReps})
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(2)
	}
	if res.firstErr != "" {
		fmt.Fprintln(os.Stderr, "servebench: first failure:", res.firstErr)
	}
	if res.orphans > 0 {
		fmt.Fprintf(os.Stderr, "servebench: %d spans without a parent\n", res.orphans)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if !res.Correct || res.Failed > 0 {
		os.Exit(1)
	}
}

// benchmarkDef is the part of BENCHMARK.json the report reads.
type benchmarkDef struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// report runs every workload in child processes and prints the spread of
// each end-to-end metric and the traced breakdown. It reports whether
// every run was correct.
func report(out io.Writer, config string, seed int64, seconds float64, repeat int, spans string) (bool, error) {
	data, err := os.ReadFile(config)
	if err != nil {
		return false, err
	}
	var def benchmarkDef
	if err := json.Unmarshal(data, &def); err != nil {
		return false, fmt.Errorf("%s: %w", config, err)
	}
	self, err := os.Executable()
	if err != nil {
		return false, err
	}
	allOK := true
	for _, w := range workloads {
		runs := make([]*result, 0, repeat)
		for i := 0; i < repeat; i++ {
			r, err := child(self, w.name, seed+int64(i), seconds, false, "")
			if err != nil {
				return false, err
			}
			allOK = allOK && r.Correct && r.Failed == 0
			runs = append(runs, r)
		}
		traced, err := child(self, w.name, seed, seconds/4, true, spans)
		if err != nil {
			return false, err
		}
		allOK = allOK && traced.Correct && traced.Failed == 0

		fmt.Fprintf(out, "\n== %s: %d untraced run(s) of %gs from seed %d; traced run of %gs\n", w.name, repeat, seconds, seed, seconds/4)
		fmt.Fprintf(out, "%-26s %-6s %12s %12s %12s %8s %8s %6s\n", "metric", "unit", "median", "q1", "q3", "iqr/med", "rng/med", "bound")
		var rps float64
		for _, m := range def.EndToEnd {
			vals := make([]float64, len(runs))
			for i, r := range runs {
				vals[i] = r.Metrics[m.Name].Value
			}
			q1, med, q3 := quartiles(vals)
			lo, hi := minMax(vals)
			iqr, rng := ratio(q3-q1, med), ratio(hi-lo, med)
			flag := ""
			if rng > m.Bound {
				flag += " RANGE>BOUND"
			}
			if iqr > m.Bound/3 {
				flag += " IQR>BOUND/3"
			}
			fmt.Fprintf(out, "%-26s %-6s %12.4f %12.4f %12.4f %8.4f %8.4f %6.2f%s\n", m.Name, runs[0].Metrics[m.Name].Unit, med, q1, q3, iqr, rng, m.Bound, flag)
			if m.Name == "throughput_rps" {
				rps = med
			}
		}
		fmt.Fprintf(out, "-- per layer (traced)\n")
		for _, name := range sortedKeys(traced.Metrics) {
			fmt.Fprintf(out, "%-30s %-6s %12.4f\n", name, traced.Metrics[name].Unit, traced.Metrics[name].Value)
		}
		// The traced run's rate is its request count over its nominal
		// length, at the reference speed and without the stolen time; the
		// length includes the ~2% of it the calibration bursts hold the
		// clients.
		tm := traced.Metrics
		tracedRPS := float64(traced.Attempted) / (seconds / 4) / tm["host.speed_factor"].Value / (1 - tm["host.stolen_frac"].Value)
		fmt.Fprintf(out, "%-30s %-6s %12.4f  (1 - traced/untraced throughput)\n", "trace_overhead_frac", "frac",
			1-ratio(tracedRPS, rps))
	}
	return allOK, nil
}

// child runs one workload in a child process and parses its result line.
func child(self, workload string, seed int64, seconds float64, traced bool, spans string) (*result, error) {
	args := []string{"-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0"}
	if traced {
		args[len(args)-1] = "1"
		if spans != "" {
			args = append(args, "-spans", spans)
		}
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	runErr := cmd.Run()
	var last string
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			last = line
		}
	}
	var r result
	if err := json.Unmarshal([]byte(last), &r); err != nil {
		return nil, errors.Join(fmt.Errorf("%s seed %d: no result line", workload, seed), runErr)
	}
	return &r, nil
}

// quartiles returns the first quartile, median and third quartile by the
// "exclusive" method of Python's statistics.quantiles(n=4).
func quartiles(vals []float64) (q1, q2, q3 float64) {
	x := append([]float64(nil), vals...)
	sort.Float64s(x)
	n := len(x)
	if n == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	if n == 1 {
		return x[0], x[0], x[0]
	}
	m := n + 1
	q := func(i int) float64 {
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (x[j-1]*(4-delta) + x[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

func minMax(vals []float64) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, v := range vals {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	return lo, hi
}
