package service_test

// Differential tests for the one-pass native decoder (decode.go): whenever
// the scanner accepts a body, the encoding/json path it stands in for
// must accept the body too and read the same request and the same graph
// from it. A body the scanner declines takes that path itself, so its
// answer is the old one by construction. And for every body, a cluster
// router's key and form (RouteKey, DeltaRouteKey) must be what the
// worker's own reading of the body gives.

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"testing"

	"regcoal/internal/corpus"
	"regcoal/internal/graph"
	"regcoal/internal/service"
	"regcoal/internal/service/loadgen"
	"regcoal/internal/session"
)

// fuzzMaxVertices caps the graphs the fuzzer may make either decoder
// build, so a mutated vertex count costs at most an 8 KiB bitset; the
// largest hot-mix graph has 92 vertices.
const fuzzMaxVertices = 256

// hotBodies is servebench's hot mix as solve bodies: instances 0–15 of
// its six corpus families at corpus seed 2007, each relabeled by a
// seeded permutation.
func hotBodies(tb testing.TB) [][]byte {
	tb.Helper()
	rng := rand.New(rand.NewSource(2007))
	var bodies [][]byte
	for _, name := range []string{"chordal", "interval", "er-dense", "er-sparse", "ssa", "ssa-pressure"} {
		fam, ok := corpus.Lookup(name)
		if !ok {
			tb.Fatalf("unknown family %q", name)
		}
		for i := 0; i < 16; i++ {
			inst, err := fam.Generate(corpus.Params{Seed: 2007}, i)
			if err != nil {
				tb.Fatal(err)
			}
			inst.File = relabelFile(inst.File, rng.Perm(inst.File.G.N()))
			jobs, err := loadgen.JobsFromInstances([]*corpus.Instance{inst}, loadgen.JobOptions{})
			if err != nil {
				tb.Fatal(err)
			}
			bodies = append(bodies, jobs[0].Body)
		}
	}
	return bodies
}

// relabelFile renumbers f's vertices by perm (perm[old] = new).
func relabelFile(f *graph.File, perm []int) *graph.File {
	g := graph.New(f.G.N())
	for _, e := range f.G.Edges() {
		g.AddEdge(graph.V(perm[e[0]]), graph.V(perm[e[1]]))
	}
	for v := 0; v < f.G.N(); v++ {
		if c, ok := f.G.Precolored(graph.V(v)); ok {
			g.SetPrecolored(graph.V(perm[v]), c)
		}
	}
	for _, a := range f.G.Affinities() {
		g.AddAffinity(graph.V(perm[a.X]), graph.V(perm[a.Y]), a.Weight)
	}
	g.NormalizeAffinities()
	return &graph.File{G: g, K: f.K}
}

// declinedBodies are bodies the scanner must decline, one or more per
// case where encoding/json reads something a naive scanner would not, or
// where ToFile reports an error the fallback must word.
var declinedBodies = []string{
	// Keys matched by case folding, and duplicate keys (the last wins).
	`{"Graph":{"vertices":3,"edges":[[0,1],[1,2]],"k":2}}`,
	`{"graph":{"VERTICES":3,"edges":[[0,1],[1,2]],"k":2}}`,
	`{"graph":{"vertices":3,"edges":[[0,1]],"moves":[{"x":1,"y":2,"X":0}],"k":2}}`,
	`{"graph":{"vertices":3,"edges":[[0,1],[1,2]],"k":2,"k":3}}`,
	`{"k":1,"graph":{"vertices":3,"edges":[[0,1],[1,2]]},"k":2}`,
	`{"graph":{"vertices":3,"moves":[{"x":0,"y":2,"x":1}],"k":2}}`,
	`{"graph":{"vertices":3,"precolored":[{"v":0,"color":1,"v":2}],"k":2}}`,
	`{"op":"create","op":"create","graph":{"vertices":2,"k":2}}`,
	// null anywhere.
	`{"graph":null}`,
	`{"graph":{"vertices":3,"edges":null,"k":2}}`,
	`{"graph":{"vertices":3,"edges":[[0,1],null],"k":2}}`,
	`{"graph":{"vertices":3,"edges":[[0,null]],"k":2}}`,
	`{"graph":{"vertices":3,"k":null}}`,
	`{"graph":{"vertices":3,"k":2},"strategies":[null]}`,
	`{"graph":{"vertices":3,"k":2},"no_cache":null}`,
	`{"op":"create","graph":{"vertices":3,"k":2},"k":null}`,
	// Numbers with a fraction or exponent, a leading zero, or outside int64.
	`{"graph":{"vertices":3.0,"k":2}}`,
	`{"graph":{"vertices":3,"edges":[[0,1e0]],"k":2}}`,
	`{"graph":{"vertices":3,"k":2E0}}`,
	`{"graph":{"vertices":3,"k":2},"deadline_ms":1.5}`,
	`{"graph":{"vertices":03,"k":2}}`,
	`{"graph":{"vertices":9223372036854775808,"k":2}}`,
	`{"graph":{"vertices":3,"edges":[[0,-9223372036854775809]],"k":2}}`,
	`{"graph":{"vertices":3,"moves":[{"x":0,"y":2,"weight":99999999999999999999}],"k":2}}`,
	`{"graph":{"vertices":-,"k":2}}`,
	// Strings with escapes, control or non-ASCII bytes.
	`{"graph":{"vertices":3,"k":2},"strategies":["aggr\u0065ssive"]}`,
	`{"gr\u0061ph":{"vertices":3,"k":2}}`,
	`{"graph":{"vertices":3,"k":2},"strategies":["agressivé"]}`,
	"{\"graph\":{\"vertices\":3,\"k\":2},\"strategies\":[\"a\tb\"]}",
	`{"op":"cre\u0061te","graph":{"vertices":2,"k":2}}`,
	// Edge pairs without exactly two elements.
	`{"graph":{"vertices":3,"edges":[[0,1,2]],"k":2}}`,
	`{"graph":{"vertices":3,"edges":[[1]],"k":2}}`,
	`{"graph":{"vertices":3,"edges":[[]],"k":2}}`,
	// names, text, dimacs and unknown keys.
	`{"graph":{"names":["a","b","c"],"edges":[[0,1]],"k":2}}`,
	`{"graph":{"text":"k 2\nnode a\n"}}`,
	`{"graph":{"dimacs":"p edge 2 1\nc regcoal k 2\ne 1 2\n"}}`,
	`{"graph":{"vertices":2,"k":2},"bogus":1}`,
	`{"graph":{"vertices":2,"k":2,"bogus":1}}`,
	`{"graph":{"vertices":2,"moves":[{"x":0,"y":1,"w":2}],"k":2}}`,
	`{"graph":{"vertices":2,"precolored":[{"v":0,"colour":1}],"k":2}}`,
	`{"op":"create","graph":{"vertices":2,"k":2},"deadline_ms":5}`,
	`{"op":"create","graph":{"vertices":2,"k":2},"session_id":"s-1","base_hash":"abc"}`,
	// Non-whitespace after the top-level object.
	`{"graph":{"vertices":3,"edges":[[0,1]],"k":2}} trailing`,
	`{"graph":{"vertices":3,"edges":[[0,1]],"k":2}}{}`,
	`{"op":"create","graph":{"vertices":2,"k":2}}]`,
	// Other types, malformed JSON, no graph, a delta op that is not a
	// create.
	`{"graph":{"vertices":"3","k":2}}`,
	`{"graph":{"vertices":3,"k":2},"no_cache":1}`,
	`{"graph":{"vertices":3,"k":2},"no_cache":tru}`,
	`{"graph":{"vertices":3,"edges":{"0":1},"k":2}}`,
	`{"graph":[],"k":2}`,
	`{"graph":{"vertices":3,"edges":[[0,1],],"k":2}}`,
	`{"graph":{"vertices":3,"k":2}`,
	`[]`,
	``,
	`{}`,
	`{"k":2}`,
	`{"op":"Create","graph":{"vertices":2,"k":2}}`,
	`{"op":"delta","graph":{"vertices":2,"k":2}}`,
	`{"op":"close","session_id":"s-1"}`,
	// Errors toNativeFile reports: the fallback words them.
	`{"graph":{"vertices":2,"edges":[[0,5]],"k":2}}`,
	`{"graph":{"vertices":2,"edges":[[-1,0]],"k":2}}`,
	`{"graph":{"vertices":2,"edges":[[1,1]],"k":2}}`,
	`{"graph":{"vertices":2,"moves":[{"x":0,"y":2}],"k":2}}`,
	`{"graph":{"vertices":2,"moves":[{"x":0,"y":1,"weight":-3}],"k":2}}`,
	`{"graph":{"vertices":2,"precolored":[{"v":2,"color":0}],"k":2}}`,
	`{"graph":{"vertices":2,"precolored":[{"v":0,"color":-1}],"k":2}}`,
	`{"graph":{}}`,
	`{"graph":{"vertices":-5,"k":2}}`,
	`{"graph":{"edges":[],"moves":[],"precolored":[]},"k":2}`,
	`{"op":"create","graph":{"vertices":2,"edges":[[0,0]],"k":2}}`,
	// Over the vertex cap.
	`{"graph":{"vertices":1000000000,"k":2}}`,
	`{"op":"create","graph":{"vertices":1000000000,"k":2}}`,
}

// acceptedBodies are plain bodies the scanner must accept, covering every
// member of the schema.
var acceptedBodies = []string{
	`{"graph":{"vertices":3,"edges":[[0,1],[1,2],[2,1]],"moves":[{"x":0,"y":2,"weight":0},{"y":1,"x":1}],"precolored":[{"v":0,"color":1},{"color":0,"v":0}],"k":2},"k":0,"deadline_ms":-5,"strategies":[],"no_cache":false}`,
	` { "graph" : { "k" : 2 , "vertices" : 3 , "edges" : [ [ 0 , 1 ] , [ 1 , 2 ] ] } } ` + "\t\r\n",
	`{"no_cache":true,"strategies":["aggressive","exact"],"deadline_ms":250,"k":3,"graph":{"vertices":4,"edges":[[0,1],[1,2],[2,0],[2,3]],"moves":[{"x":3,"y":0,"weight":7}]}}`,
	`{"graph":{"vertices":1},"k":-0}`,
	`{"op":"create","graph":{"vertices":3,"edges":[[0,1]],"moves":[{"x":0,"y":2}],"k":2}}`,
	`{"k":4,"graph":{"vertices":2},"op":"create"}`,
}

func FuzzDecodeRequest(f *testing.F) {
	for _, b := range hotBodies(f) {
		f.Add(b)
	}
	for _, b := range declinedBodies {
		f.Add([]byte(b))
	}
	for _, b := range acceptedBodies {
		f.Add([]byte(b))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkSolveDecode(t, body)
		checkCreateDecode(t, body)
		checkSolveRoute(t, body)
		checkDeltaRoute(t, body)
	})
}

// checkSolveDecode compares an accepted solve body with the strict
// decode the worker falls back to.
func checkSolveDecode(t *testing.T, body []byte) {
	req, f, ok := service.ScanSolve(body, fuzzMaxVertices)
	if !ok {
		return
	}
	var want service.Request
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&want); err != nil {
		t.Fatalf("scanner accepted %q, encoding/json: %v", body, err)
	}
	if want.Graph == nil {
		t.Fatalf("scanner accepted %q without a graph", body)
	}
	wf, err := want.Graph.ToFile(fuzzMaxVertices)
	if err != nil {
		t.Fatalf("scanner accepted %q, ToFile: %v", body, err)
	}
	if req.K != want.K || req.DeadlineMS != want.DeadlineMS || req.NoCache != want.NoCache ||
		!slices.Equal(req.Strategies, want.Strategies) {
		t.Fatalf("%q: scanned k=%d deadline=%d no_cache=%v strategies=%q, encoding/json k=%d deadline=%d no_cache=%v strategies=%q",
			body, req.K, req.DeadlineMS, req.NoCache, req.Strategies, want.K, want.DeadlineMS, want.NoCache, want.Strategies)
	}
	sameFile(t, body, f, wf)
}

// strictDecode is the worker's reading of a body: a strict decode into
// req, then ToFile of the graph spec() returns. ok reports the decode; f
// is nil when there is no graph or ToFile refuses it.
func strictDecode(body []byte, req any, spec func() *service.GraphSpec) (f *graph.File, ok bool) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if dec.Decode(req) != nil {
		return nil, false
	}
	if g := spec(); g != nil {
		if gf, err := g.ToFile(fuzzMaxVertices); err == nil {
			f = gf
		}
	}
	return f, true
}

// canonHash is the hash the worker canonicalizes f to under the
// request's k override, or "" when no register count is set.
func canonHash(f *graph.File, reqK int) string {
	k := f.K
	if reqK > 0 {
		k = reqK
	}
	if k <= 0 {
		return ""
	}
	return graph.CanonicalForm(&graph.File{G: f.G, K: k}).Hash
}

// checkSolveRoute requires the router's key for any solve body to be the
// hash the worker's strict decode and ToFile give, and its form to
// verify against that graph.
func checkSolveRoute(t *testing.T, body []byte) {
	var req service.Request
	wf, _ := strictDecode(body, &req, func() *service.GraphSpec { return req.Graph })
	want := ""
	if wf != nil {
		want = canonHash(wf, req.K)
	}
	got, form := service.RouteKey(body, fuzzMaxVertices)
	if got != want {
		t.Fatalf("%q: routing key %q, the worker's decode %q", body, got, want)
	}
	checkForm(t, body, got, form, wf, req.K)
}

// checkDeltaRoute requires the router's key for any delta body to be
// what the worker's strict decode gives: a create's graph hash with its
// form, any other op's base_hash with no form, and "" for a body the
// worker refuses.
func checkDeltaRoute(t *testing.T, body []byte) {
	var req service.DeltaRequest
	wf, ok := strictDecode(body, &req, func() *service.GraphSpec { return req.Graph })
	got, form := service.DeltaRouteKey(body, fuzzMaxVertices)
	if ok && req.Op == "create" {
		want := ""
		if wf != nil {
			want = canonHash(wf, req.K)
		}
		if got != want {
			t.Fatalf("%q: create routing key %q, the worker's decode %q", body, got, want)
		}
		checkForm(t, body, got, form, wf, req.K)
		return
	}
	want := ""
	if ok {
		want = req.BaseHash
	}
	if got != want || form != "" {
		t.Fatalf("%q: routing key %q form %q, want %q and no form", body, got, form, want)
	}
}

// checkForm requires the router's CanonHeader value for key to verify
// against the graph the worker's strict decode built, under the
// request's k override, to key itself.
func checkForm(t *testing.T, body []byte, key, form string, wf *graph.File, reqK int) {
	t.Helper()
	if key == "" {
		if form != "" {
			t.Fatalf("%q: a form %q without a routing key", body, form)
		}
		return
	}
	k := wf.K
	if reqK > 0 {
		k = reqK
	}
	if c := service.VerifyForm(&graph.File{G: wf.G, K: k}, form); c == nil || c.Hash != key {
		t.Fatalf("%q: the router's form %q does not verify to its key %q", body, form, key)
	}
}

// checkCreateDecode is checkSolveDecode for a delta create body.
func checkCreateDecode(t *testing.T, body []byte) {
	k, f, ok := service.ScanCreate(body, fuzzMaxVertices)
	if !ok {
		return
	}
	var want service.DeltaRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&want); err != nil {
		t.Fatalf("scanner accepted create %q, encoding/json: %v", body, err)
	}
	if want.Op != "create" || want.Graph == nil {
		t.Fatalf("scanner accepted %q as a create: op %q, graph %v", body, want.Op, want.Graph)
	}
	wf, err := want.Graph.ToFile(fuzzMaxVertices)
	if err != nil {
		t.Fatalf("scanner accepted create %q, ToFile: %v", body, err)
	}
	if k != want.K {
		t.Fatalf("%q: scanned k=%d, encoding/json k=%d", body, k, want.K)
	}
	sameFile(t, body, f, wf)
}

// sameFile requires two decodes of body to have built the same instance.
func sameFile(t *testing.T, body []byte, got, want *graph.File) {
	t.Helper()
	if err := got.G.Validate(); err != nil {
		t.Fatalf("%q: scanned graph invalid: %v", body, err)
	}
	g, w := got.G, want.G
	if g.N() != w.N() || got.K != want.K || !slices.Equal(g.Edges(), w.Edges()) ||
		!slices.Equal(g.Affinities(), w.Affinities()) {
		t.Fatalf("%q: scanned n=%d k=%d edges %v moves %v, encoding/json n=%d k=%d edges %v moves %v",
			body, g.N(), got.K, g.Edges(), g.Affinities(), w.N(), want.K, w.Edges(), w.Affinities())
	}
	for v := graph.V(0); int(v) < g.N(); v++ {
		gc, gok := g.Precolored(v)
		wc, wok := w.Precolored(v)
		if gc != wc || gok != wok {
			t.Fatalf("%q: vertex %d precolor %d/%v, encoding/json %d/%v", body, v, gc, gok, wc, wok)
		}
	}
}

func TestDecodeDeclinesAndAccepts(t *testing.T) {
	for _, b := range declinedBodies {
		if _, _, ok := service.ScanSolve([]byte(b), fuzzMaxVertices); ok {
			t.Errorf("scanner accepted solve body %s", b)
		}
		if _, _, ok := service.ScanCreate([]byte(b), fuzzMaxVertices); ok {
			t.Errorf("scanner accepted create body %s", b)
		}
	}
	for _, b := range acceptedBodies {
		_, _, solve := service.ScanSolve([]byte(b), fuzzMaxVertices)
		_, _, create := service.ScanCreate([]byte(b), fuzzMaxVertices)
		if !solve && !create {
			t.Errorf("scanner declined %s", b)
		}
	}
	for i, b := range hotBodies(t) {
		if _, _, ok := service.ScanSolve(b, fuzzMaxVertices); !ok {
			t.Errorf("scanner declined hot body %d", i)
		}
	}
}

// A router keys a body by the hash the worker's answer carries, also
// for bodies only the worker's strict decode reads (trailing bytes
// after the object, a stray base_hash on a create) and for text, DIMACS
// and names graphs, and forwards the form of that hash.
func TestRouteKeyIsTheWorkersHash(t *testing.T) {
	_, ts := startService(t, service.Config{})
	const g = `{"vertices":3,"edges":[[0,1],[1,2]],"moves":[{"x":0,"y":2}],"k":2}`
	for _, tc := range []struct{ path, body string }{
		{"/v1/coalesce", `{"graph":` + g + `} trailing`},
		{"/v1/coalesce", `{"graph":` + g + `}{}`},
		{"/v1/allocate", `{"graph":{"names":["a","b","c"],"edges":[[0,1],[1,2]],"k":2}}`},
		{"/v1/spill", `{"graph":{"text":"k 2\nnode a\nnode b\nedge a b\n"}}`},
		{"/v1/coalesce", `{"graph":{"dimacs":"p edge 2 1\nc regcoal k 2\ne 1 2\n"}}`},
		{"/v1/coalesce/delta", `{"op":"create","graph":` + g + `} trailing`},
		{"/v1/coalesce/delta", `{"op":"create","graph":` + g + `,"base_hash":"abc"}`},
	} {
		resp, err := http.Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		var answer struct {
			Hash     string `json:"hash"`
			BaseHash string `json:"base_hash"`
		}
		err = json.NewDecoder(resp.Body).Decode(&answer)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s %s: status %d, %v", tc.path, tc.body, resp.StatusCode, err)
		}
		want, route := answer.Hash, service.RouteKey
		if tc.path == "/v1/coalesce/delta" {
			want, route = answer.BaseHash, service.DeltaRouteKey
		}
		key, form := route([]byte(tc.body), service.DefaultMaxVertices)
		if key != want || !strings.HasPrefix(form, want+":") {
			t.Errorf("%s %s: routed by %q with form %q, the worker answered hash %q", tc.path, tc.body, key, form, want)
		}
	}
	// A delta op routes by the base_hash it echoes, never by a graph it
	// carries: without one it goes to the fallback shard.
	for body, want := range map[string]string{
		`{"op":"delta","session_id":"s-1","graph":` + g + `,"deltas":[{"op":"add_vertex"}]}`:                   "",
		`{"op":"delta","session_id":"s-1","graph":` + g + `,"base_hash":"abc","deltas":[{"op":"add_vertex"}]}`: "abc",
		`{"op":"close","session_id":"s-1","base_hash":"abc"} trailing`:                                         "abc",
	} {
		if key, form := service.DeltaRouteKey([]byte(body), service.DefaultMaxVertices); key != want || form != "" {
			t.Errorf("%s: routed by %q with form %q, want %q and no form", body, key, form, want)
		}
	}
}

func TestDecodeRequestAllocs(t *testing.T) {
	if graph.RaceEnabled {
		t.Skip("the race detector inflates allocation counts")
	}
	for i, body := range hotBodies(t) {
		allocs := testing.AllocsPerRun(20, func() {
			if _, _, ok := service.ScanSolve(body, fuzzMaxVertices); !ok {
				t.Fatalf("scanner declined hot body %d", i)
			}
		})
		if allocs > 16 {
			t.Errorf("hot body %d (%d bytes): %.1f allocs per decode, want <= 16", i, len(body), allocs)
		}
	}
}

// BenchmarkDecodeRequest decodes the hot mix, one body per op: json is
// the fallback path (strict encoding/json, then ToFile), native the
// one-pass scanner.
func BenchmarkDecodeRequest(b *testing.B) {
	bodies := hotBodies(b)
	b.Run("json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; b.Loop(); i++ {
			var req service.Request
			dec := json.NewDecoder(bytes.NewReader(bodies[i%len(bodies)]))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&req); err != nil {
				b.Fatal(err)
			}
			if _, err := req.Graph.ToFile(fuzzMaxVertices); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("native", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; b.Loop(); i++ {
			if _, _, ok := service.ScanSolve(bodies[i%len(bodies)], fuzzMaxVertices); !ok {
				b.Fatal("scanner declined a hot body")
			}
		}
	})
}

// A body declaring a huge graph is refused before anything is built for
// it: a billion vertices would otherwise cost an n×n bitset, and the
// runtime ends the process instead of panicking. A missing register
// count or a structural error still answers first, as it did when the
// graph was built before the cap was checked.
func TestOversizeGraphRefusedBeforeBuild(t *testing.T) {
	s, ts := startService(t, service.Config{})
	small, smallTS := startService(t, service.Config{MaxVertices: 1000})
	for _, tc := range []struct {
		url, path, body, want string
	}{
		{ts.URL, "/v1/coalesce", `{"graph":{"vertices":1000000000,"k":2}}`,
			`{"error":"graph has 1000000000 vertices, limit 200000"}`},
		{ts.URL, "/v1/coalesce/delta", `{"op":"create","graph":{"vertices":1000000000,"k":2}}`,
			`{"error":"graph carries 1000000000 vertices, limit 200000"}`},
		{smallTS.URL, "/v1/allocate", `{"graph":{"vertices":150000,"k":2}}`,
			`{"error":"graph has 150000 vertices, limit 1000"}`},
		{smallTS.URL, "/v1/spill", `{"graph":{"vertices":150000},"k":3}`,
			`{"error":"graph has 150000 vertices, limit 1000"}`},
		{smallTS.URL, "/v1/coalesce", `{"graph":{"vertices":1000000000}}`,
			`{"error":"no register count: set k in the request or the graph payload"}`},
		{smallTS.URL, "/v1/coalesce", `{"graph":{"vertices":1000000000,"edges":[[0,1000000000]],"k":2}}`,
			`{"error":"graph: vertex 1000000000 out of range [0,1000000000)"}`},
		{smallTS.URL, "/v1/coalesce/delta", `{"op":"create","graph":{"vertices":150000,"k":2}}`,
			`{"error":"graph carries 150000 vertices, limit 1000"}`},
	} {
		resp, err := http.Post(tc.url+tc.path, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		got, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || string(got) != tc.want {
			t.Errorf("%s %s: (%d) %s, want (400) %s", tc.path, tc.body, resp.StatusCode, got, tc.want)
		}
	}
	resp, err := http.Post(ts.URL+"/v1/batch", "application/json",
		strings.NewReader(`{"items":[{"graph":{"vertices":1000000000,"k":2}}]}`))
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if want := `{"results":[{"error":"graph has 1000000000 vertices, limit 200000"}]}`; string(got) != want {
		t.Errorf("batch: %s, want %s", got, want)
	}
	err = replayLog(s, "s-0", "", []byte(`{"op":"create","graph":{"vertices":1000000000,"k":2}}`))
	if err == nil || !strings.Contains(err.Error(), "graph carries 1000000000 vertices, limit 200000") {
		t.Errorf("replaying an oversize create: %v", err)
	}
	if err := replayLog(small, "s-1", "", []byte(`{"op":"create","graph":{"vertices":150000,"k":2}}`)); err == nil ||
		!strings.Contains(err.Error(), "graph carries 150000 vertices, limit 1000") {
		t.Errorf("replaying an over-cap create: %v", err)
	}
}

// replayLog seeds session id on s from a create-only op log through the
// session store's receive and first use, the path a replica's failover
// takes, and returns the replay's error.
func replayLog(s *service.Server, id, baseHash string, create []byte) error {
	if _, err := s.Sessions().Receive(&session.ExportRecord{SessionID: id, BaseHash: baseHash, Create: create}); err != nil {
		return err
	}
	_, err := s.Sessions().Get(id)
	return err
}

// A session's op log replays its create body exactly as handleDelta
// decoded it, trailing bytes after the object included.
func TestReplayDecodesCreateLikeHandleDelta(t *testing.T) {
	primary, ts := startService(t, service.Config{})
	replica, _ := startService(t, service.Config{})
	body := `{"op":"create","graph":{"vertices":2,"edges":[[0,1]],"k":2}} trailing`
	resp, err := http.Post(ts.URL+"/v1/coalesce/delta", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var created service.DeltaResponse
	err = json.NewDecoder(resp.Body).Decode(&created)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("create: status %d, %v", resp.StatusCode, err)
	}
	if err := replayLog(replica, created.SessionID, "", []byte(body)); err != nil {
		t.Fatalf("replaying the create: %v", err)
	}
	want, err := primary.Sessions().Get(created.SessionID)
	if err != nil {
		t.Fatal(err)
	}
	got, err := replica.Sessions().Get(created.SessionID)
	if err != nil {
		t.Fatalf("replayed session: %v", err)
	}
	if got.BaseHash() != want.BaseHash() {
		t.Fatalf("replayed base hash %q, want %q", got.BaseHash(), want.BaseHash())
	}
}

// A delta create records one decode span covering the scan and the graph
// build, on the scanner's path and on the encoding/json fallback alike.
func TestDeltaCreateRecordsDecodeOnce(t *testing.T) {
	_, ts := startService(t, service.Config{})
	bodies := []string{
		`{"op":"create","graph":{"vertices":3,"edges":[[0,1],[1,2]],"moves":[{"x":0,"y":2}],"k":2}}`,
		`{"op":"create","graph":{"text":"k 2\nnode a\nnode b\nedge a b\n"}}`,
	}
	for _, body := range bodies {
		resp, err := http.Post(ts.URL+"/v1/coalesce/delta", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("create %s: status %d", body, resp.StatusCode)
		}
		header := resp.Header.Get(service.PhasesHeader)
		seen := map[string]bool{}
		for _, seg := range strings.Split(header, ";") {
			name, _, _ := strings.Cut(seg, "=")
			if seen[name] {
				t.Errorf("create %s: phase %q twice in %q", body, name, header)
			}
			seen[name] = true
		}
		if !seen["decode"] {
			t.Errorf("create %s: no decode phase in %q", body, header)
		}
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	const series = `regcoal_phase_duration_seconds_count{endpoint="delta",phase="decode"} `
	_, rest, ok := strings.Cut(string(metrics), series)
	count, _, _ := strings.Cut(rest, "\n")
	if n, err := strconv.Atoi(count); !ok || err != nil || n != len(bodies) {
		t.Errorf("delta decode histogram count %q, want %d", count, len(bodies))
	}
}
