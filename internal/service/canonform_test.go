package service_test

// Tests for the forwarded canonical form (canonform.go): a worker uses
// the form on CanonHeader only when it verifies, answers byte-identically
// to a request without one either way, and counts every form it refused.

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"regcoal/internal/graph"
	"regcoal/internal/service"
	"regcoal/internal/service/loadgen"
)

// postWithForm POSTs body with form as its CanonHeader ("" sends none).
func postWithForm(t *testing.T, url, form string, body []byte) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if form != "" {
		req.Header.Set(service.CanonHeader, form)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

// canonCounters reads the two forwarded-form counters off /stats' source.
func canonCounters(s *service.Server) (forwarded, rejected int64) {
	st := s.Registry().Snapshot()
	return st.Int("canon_forwarded"), st.Int("canon_forward_rejected")
}

// splitForm splits a CanonHeader value into its hash and perm entries.
func splitForm(t *testing.T, form string) (hash string, entries []string) {
	t.Helper()
	hash, list, ok := strings.Cut(form, ":")
	if !ok || len(hash) != 64 {
		t.Fatalf("malformed form %q", form)
	}
	return hash, strings.Split(list, ",")
}

// flipHex changes a hex hash's first digit.
func flipHex(hash string) string {
	if hash[0] == '0' {
		return "1" + hash[1:]
	}
	return "0" + hash[1:]
}

var sessionID = regexp.MustCompile(`"session_id":"s-[0-9a-f]+"`)

// Every malformed, foreign or stale form answers exactly what no form
// answers and bumps only the rejected counter; the router's own form
// bumps only the forwarded one. The same holds for a delta create, whose
// base_hash the form stands in for.
func TestForwardedFormVerifiedOrRecomputed(t *testing.T) {
	s, ts := startService(t, service.Config{})
	max := s.Config().MaxVertices
	graphJSON := `{"vertices":6,"edges":[[0,1],[1,2],[2,3],[3,4],[4,5],[0,5],[1,4]],"moves":[{"x":0,"y":3,"weight":4},{"x":2,"y":5}],"precolored":[{"v":0,"color":1}]}`
	body := []byte(`{"graph":` + graphJSON + `,"k":3}`)
	key, form := service.RouteKey(body, max)
	if key == "" || form == "" {
		t.Fatalf("no routing key or form for %s: %q %q", body, key, form)
	}
	_, kForm := service.RouteKey([]byte(`{"graph":`+graphJSON+`,"k":4}`), max)
	otherKey, _ := service.RouteKey([]byte(`{"graph":{"vertices":6,"edges":[[0,1],[1,2]]},"k":3}`), max)
	hash, entries := splitForm(t, form)
	rest := form[len(hash):]
	n := len(entries)
	edit := func(change func(e []string)) string {
		e := slices.Clone(entries)
		change(e)
		return hash + ":" + strings.Join(e, ",")
	}
	if strings.ToUpper(hash) == hash {
		t.Fatalf("hash %s has no hex letter to upper-case", hash)
	}
	bad := []struct{ name, form string }{
		{"wrong hash", flipHex(hash) + rest},
		{"another graph's hash", otherKey + rest},
		{"perm too short", hash + ":" + strings.Join(entries[:n-1], ",")},
		{"perm too long", form + ",0"},
		{"duplicate entry", edit(func(e []string) { e[1] = e[0] })},
		{"out-of-range entry", edit(func(e []string) { e[0] = strconv.Itoa(n) })},
		{"huge entry", edit(func(e []string) { e[0] = "99999999999999999999999" })},
		{"negative entry", edit(func(e []string) { e[0] = "-" + e[0] })},
		{"non-digit entry", edit(func(e []string) { e[0] = "x" })},
		{"empty entry", edit(func(e []string) { e[0] = "" })},
		{"trailing garbage", form + "x"},
		{"trailing comma", form + ","},
		{"missing colon", hash + strings.Join(entries, ",")},
		{"hash only", hash},
		{"upper-case hex", strings.ToUpper(hash) + rest},
		{"a form under another k", kForm},
	}

	for _, ep := range []string{"/v1/coalesce", "/v1/allocate", "/v1/spill"} {
		wantStatus, want := postWithForm(t, ts.URL+ep, "", body)
		if wantStatus != http.StatusOK {
			t.Fatalf("%s: status %d: %s", ep, wantStatus, want)
		}
		for _, tc := range bad {
			fwd, rej := canonCounters(s)
			status, got := postWithForm(t, ts.URL+ep, tc.form, body)
			if status != wantStatus || !bytes.Equal(got, want) {
				t.Errorf("%s, %s: (%d) %s, want (%d) %s", ep, tc.name, status, got, wantStatus, want)
			}
			if f, r := canonCounters(s); f != fwd || r != rej+1 {
				t.Errorf("%s, %s: forwarded %d→%d, rejected %d→%d; want only one rejection", ep, tc.name, fwd, f, rej, r)
			}
		}
		fwd, rej := canonCounters(s)
		status, got := postWithForm(t, ts.URL+ep, form, body)
		if status != wantStatus || !bytes.Equal(got, want) {
			t.Errorf("%s, the router's form: (%d) %s, want (%d) %s", ep, status, got, wantStatus, want)
		}
		if f, r := canonCounters(s); f != fwd+1 || r != rej {
			t.Errorf("%s, the router's form: forwarded %d→%d, rejected %d→%d; want only one use", ep, fwd, f, rej, r)
		}
	}

	// Sessions refuse precolors, so the create's graph has none.
	createGraph := `{"vertices":6,"edges":[[0,1],[1,2],[2,3],[3,4],[4,5],[0,5],[1,4]],"moves":[{"x":0,"y":3,"weight":4},{"x":2,"y":5}]}`
	create := []byte(`{"op":"create","graph":` + createGraph + `,"k":3}`)
	key, form = service.DeltaRouteKey(create, max)
	if solveKey, solveForm := service.RouteKey([]byte(`{"graph":`+createGraph+`,"k":3}`), max); key != solveKey || form != solveForm {
		t.Fatalf("create routes by %q %q, its solve by %q %q", key, form, solveKey, solveForm)
	}
	hash, entries = splitForm(t, form)
	_, kForm = service.RouteKey([]byte(`{"graph":`+createGraph+`,"k":4}`), max)
	_, want := postWithForm(t, ts.URL+"/v1/coalesce/delta", "", create)
	want = sessionID.ReplaceAll(want, nil)
	for _, tc := range []struct {
		name, form         string
		forwarded, refused int64
	}{
		{"the router's form", form, 1, 0},
		{"wrong hash", flipHex(hash) + form[len(hash):], 0, 1},
		{"a form under another k", kForm, 0, 1},
		{"a duplicate entry", hash + ":" + strings.Join(append([]string{entries[1]}, entries[1:]...), ","), 0, 1},
	} {
		fwd, rej := canonCounters(s)
		status, got := postWithForm(t, ts.URL+"/v1/coalesce/delta", tc.form, create)
		if got = sessionID.ReplaceAll(got, nil); status != http.StatusOK || !bytes.Equal(got, want) {
			t.Errorf("create, %s: (%d) %s, want %s", tc.name, status, got, want)
		}
		if f, r := canonCounters(s); f != fwd+tc.forwarded || r != rej+tc.refused {
			t.Errorf("create, %s: forwarded %d→%d, rejected %d→%d", tc.name, fwd, f, rej, r)
		}
	}
	if !bytes.Contains(want, []byte(`"base_hash":"`+key+`"`)) {
		t.Errorf("create answered %s, want base_hash %s", want, key)
	}
}

// Verification does not prove a perm is refinement's own: swapping the
// positions of two twins (an automorphism) serializes to the same bytes,
// so the swapped form verifies. Its answers, rendered through it, are
// still valid answers for the instance.
func TestForwardedAutomorphicFormVerifies(t *testing.T) {
	s, ts := startService(t, service.Config{})
	max := s.Config().MaxVertices
	// Vertices 1 and 2 are twins: both interfere with 0 and 3, and both
	// have a weight-2 move to 4.
	body := []byte(`{"graph":{"vertices":5,"edges":[[0,1],[0,2],[1,3],[2,3],[3,4]],"moves":[{"x":4,"y":1,"weight":2},{"x":4,"y":2,"weight":2},{"x":0,"y":3,"weight":5}]},"k":2}`)
	req, f, ok := service.ScanSolve(body, max)
	if !ok {
		t.Fatal("scanner declined the twins body")
	}
	inst := &graph.File{G: f.G, K: req.K}
	_, form := service.RouteKey(body, max)
	hash, entries := splitForm(t, form)
	entries[1], entries[2] = entries[2], entries[1]
	swapped := hash + ":" + strings.Join(entries, ",")

	for _, ep := range []string{"/v1/coalesce", "/v1/allocate", "/v1/spill"} {
		fwd, rej := canonCounters(s)
		status, got := postWithForm(t, ts.URL+ep, swapped, body)
		if status != http.StatusOK {
			t.Fatalf("%s: status %d: %s", ep, status, got)
		}
		if f, r := canonCounters(s); f != fwd+1 || r != rej {
			t.Errorf("%s: the swapped form was not used: forwarded %d→%d, rejected %d→%d", ep, fwd, f, rej, r)
		}
		var err error
		switch ep {
		case "/v1/coalesce":
			var out service.CoalesceResult
			if err = json.Unmarshal(got, &out); err == nil {
				err = loadgen.ValidateCoalesce(inst, &out)
			}
		case "/v1/allocate":
			var out service.AllocateResult
			if err = json.Unmarshal(got, &out); err == nil {
				err = loadgen.ValidateAllocate(inst, &out)
			}
		default:
			var out service.SpillResult
			if err = json.Unmarshal(got, &out); err == nil {
				err = loadgen.ValidateSpill(inst, &out)
			}
		}
		if err != nil {
			t.Errorf("%s through the swapped form: %v\n%s", ep, err, got)
		}
	}
}

// A form longer than the header bound is not forwarded: a graph of 13 000
// vertices has a perm of ~67 KB, and one of 9 000 vertices one of ~45 KB.
func TestCanonFormSizeBound(t *testing.T) {
	for _, tc := range []struct {
		n       int
		forward bool
	}{{9000, true}, {13000, false}} {
		body := []byte(`{"graph":{"vertices":` + strconv.Itoa(tc.n) + `,"k":1}}`)
		key, form := service.RouteKey(body, 0)
		if key == "" {
			t.Fatalf("%d vertices: no routing key", tc.n)
		}
		if (form != "") != tc.forward || len(form) > 64<<10 {
			t.Errorf("%d vertices: a %d-byte form, want forwarded=%v under 64 KiB", tc.n, len(form), tc.forward)
		}
	}
}

// A worker's header parse and verification allocate the perm and the
// returned Canonical, nothing per vertex or per round.
func TestVerifyCanonicalAllocs(t *testing.T) {
	max := 256
	for i, body := range hotBodies(t) {
		req, f, ok := service.ScanSolve(body, max)
		if !ok {
			t.Fatalf("hot body %d declined", i)
		}
		k := f.K
		if req.K > 0 {
			k = req.K
		}
		inst := &graph.File{G: f.G, K: k}
		key, form := service.RouteKey(body, max)
		if c := service.VerifyForm(inst, form); c == nil || c.Hash != key {
			t.Fatalf("hot body %d: the router's form does not verify", i)
		}
		allocs := testing.AllocsPerRun(20, func() { service.VerifyForm(inst, form) })
		if graph.RaceEnabled {
			t.Skipf("race detector inflates alloc counts (measured %v)", allocs)
		}
		if allocs > 3 {
			t.Fatalf("hot body %d: header parse and verify allocate %v times, want <= 3", i, allocs)
		}
	}
}
