package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"

	"regcoal/internal/service"
)

// definition reads the repository's BENCHMARK.json.
func definition(t *testing.T) (e2e, layers map[string]string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var def struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &def); err != nil {
		t.Fatal(err)
	}
	e2e, layers = map[string]string{}, map[string]string{}
	for _, m := range def.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range def.PerLayer {
		layers[m.Name] = m.Unit
	}
	return e2e, layers
}

// TestSmoke runs every workload for at most 50 timed requests, untraced
// and traced: all answers valid, every metric BENCHMARK.json names
// emitted with its unit and nothing else, and every span linked to its
// parent.
func TestSmoke(t *testing.T) {
	e2e, layers := definition(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res, err := runWorkload(options{w: w, seed: 1, seconds: 60, trace: traced, setupReps: 1, maxRequests: 50})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 || res.Attempted > 50 {
				t.Fatalf("%s traced=%v: correct=%v attempted=%d failed=%d: %s", w.name, traced, res.Correct, res.Attempted, res.Failed, res.firstErr)
			}
			want := e2e
			if traced {
				want = layers
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json names %d", w.name, traced, len(res.Metrics), len(want))
			}
			for name, unit := range want {
				if m, ok := res.Metrics[name]; !ok || m.Unit != unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %q", w.name, traced, name, m, unit)
				}
			}
			if traced && (len(res.spans) < res.Attempted || res.orphans != 0) {
				t.Errorf("%s: %d spans for %d requests, %d without a parent", w.name, len(res.spans), res.Attempted, res.orphans)
			}
		}
	}
}

// inputDigest hashes every body a workload can send.
func inputDigest(t *testing.T, seed int64) [sha256.Size]byte {
	t.Helper()
	h := sha256.New()
	for _, w := range workloads {
		in, err := buildInputs(w, seed, 200)
		if err != nil {
			t.Fatal(err)
		}
		for _, list := range [][]solveInput{in.prime, in.warm, in.inputs} {
			for _, s := range list {
				h.Write([]byte(s.path()))
				h.Write(s.body)
			}
		}
		for _, i := range in.stream {
			h.Write([]byte{byte(i), byte(i >> 8), byte(i >> 16)})
		}
		for _, p := range append(in.plans, in.warmPlans...) {
			h.Write(p.create)
			for _, b := range p.batches {
				h.Write(b)
			}
		}
	}
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}

func TestInputsDeterministic(t *testing.T) {
	a, b, c := inputDigest(t, 1), inputDigest(t, 1), inputDigest(t, 2)
	if a != b {
		t.Fatal("the same seed generated different bodies")
	}
	if a == c {
		t.Fatal("different seeds generated the same bodies")
	}
}

// TestQuartilesMatchPython pins the report's quartiles to Python's
// statistics.quantiles(data, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		in         []float64
		q1, q2, q3 float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 3, 4.5},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{4, 1}, 0.25, 2.5, 4.75},
	} {
		if q1, q2, q3 := quartiles(tc.in); q1 != tc.q1 || q2 != tc.q2 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.in, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
}

// TestHostClockScaling checks the scaling to the reference speed: a span
// takes the mean speed of the bursts around it, wall time loses the share
// stolen between them, and the bursts themselves count neither as wall
// nor as CPU time.
func TestHostClockScaling(t *testing.T) {
	h := &hostClock{bursts: []burst{
		{start: 0, end: 10, cpuStart: 0, cpuEnd: 20, speed: refSpeed},
		{start: 110, end: 120, cpuStart: 220, cpuEnd: 240, speed: 3 * refSpeed, busy: 30, stolen: 10},
		{start: 220, end: 230, cpuStart: 440, cpuEnd: 460, speed: refSpeed, busy: 60, stolen: 10},
	}}
	f := math.Pow(2, hostExponent)
	for _, tc := range []struct {
		t    int64
		want float64
	}{{-5, 1}, {10, f}, {50, f}, {115, f}, {120, f}, {200, f}, {500, 1}} {
		if got := h.scale(tc.t); got != tc.want {
			t.Errorf("scale(%d) = %v, want %v", tc.t, got, tc.want)
		}
	}
	// Both gaps run at twice the reference speed: 100ns of wall time and
	// 200ns of CPU time each, of which [50, 200] is 60 + 80 ns wall; a
	// quarter of the first gap was stolen.
	if wall, cpu := h.scaled(50, 200); math.Abs(wall-f*125) > 1e-9 || cpu != f*400 {
		t.Errorf("scaled(50, 200) = %v, %v; want %v, %v", wall, cpu, f*125, f*400)
	}
	if s := (&hostClock{}).scale(7); s != 1 {
		t.Errorf("scale without bursts = %v, want 1", s)
	}
}

// TestGateRejectsCorruptAnswers feeds the correctness gate real answers
// from a service, then corrupted copies of them.
func TestGateRejectsCorruptAnswers(t *testing.T) {
	svc, err := service.New(service.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	post := func(path string, body []byte) []byte {
		rw := httptest.NewRecorder()
		svc.Handler().ServeHTTP(rw, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		if rw.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", path, rw.Code, rw.Body)
		}
		return rw.Body.Bytes()
	}

	hot, err := hotInputs(1)
	if err != nil {
		t.Fatal(err)
	}
	in := &hot.inputs[0] // a coalesce request
	body := post(in.path(), in.body)
	if err := checkSolve(in, body, 1, &verdict{}); err != nil {
		t.Fatalf("valid answer rejected: %v", err)
	}
	var out service.CoalesceResult
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	out.Classes = out.Classes[1:]
	bad, _ := json.Marshal(out)
	if checkSolve(in, bad, 1, &verdict{}) == nil {
		t.Error("an answer missing a class was accepted")
	}

	edit, err := editInputs(1)
	if err != nil {
		t.Fatal(err)
	}
	plan := edit.plans[0]
	var created service.DeltaResponse
	if err := json.Unmarshal(post(deltaPath, plan.create), &created); err != nil {
		t.Fatal(err)
	}
	if err := checkSessionStep(plan, -1, created.SessionID, &created, true, &verdict{paths: map[string]int{}}); err != nil {
		t.Fatalf("valid create rejected: %v", err)
	}
	for name, corrupt := range map[string]func(r *service.DeltaResponse){
		"version":   func(r *service.DeltaResponse) { r.Version++ },
		"base hash": func(r *service.DeltaResponse) { r.BaseHash += "0" },
		"cost":      func(r *service.DeltaResponse) { r.Result.RemainingWeight++ },
		"class":     func(r *service.DeltaResponse) { r.Result.Classes = r.Result.Classes[1:] },
	} {
		var r service.DeltaResponse
		if err := json.Unmarshal(post(deltaPath, plan.create), &r); err != nil {
			t.Fatal(err)
		}
		corrupt(&r)
		if checkSessionStep(plan, -1, r.SessionID, &r, true, &verdict{paths: map[string]int{}}) == nil {
			t.Errorf("session response with a corrupt %s was accepted", name)
		}
	}
}
