package cluster_test

// Over-cap text and DIMACS graphs. Both readers take the vertex cap, so a
// graph over it is refused before it is built. The table pins the answers
// to over-cap bodies under a cap of 8: every one was captured from a
// single node before the readers took the cap, and must stay
// byte-identical on a single node and through the router. A later syntax
// error still wins, and a register count set only in the payload (a text
// k line, a DIMACS regcoal k comment) still counts.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"testing"

	"regcoal/internal/cluster"
	"regcoal/internal/graph"
	"regcoal/internal/service"
)

var overCapBodies = []struct {
	path, body string
	status     int
	want       string
}{
	{"/v1/coalesce", `{"graph":{"text":"k 2\nnode a\nnode b\nnode c\nnode d\nnode e\nnode f\nnode g\nnode h\nnode i\n"}}`, 400, `{"error":"graph has 9 vertices, limit 8"}`},
	{"/v1/allocate", `{"graph":{"text":"edge a b\nedge c d\nedge e f\nedge g h\nedge i j\nmove a j 3\n"},"k":3}`, 400, `{"error":"graph has 10 vertices, limit 8"}`},
	{"/v1/spill", `{"graph":{"text":"k 2\nedge a b\nedge b c\nedge c d\nedge e f\nedge g h\nmove a c 2\n"}}`, 200, `{"hash":"54299b4e035eee97704b999d49d0ddfdde612ae8124e635ad2009e6e9a2c9803","vertices":8,"edges":5,"moves":1,"k":2,"strategy":"exact","spills":0,"spill_cost":0,"optimal":true,"coloring":[1,0,1,0,1,0,1,0],"deadline_hit":false}`},
	{"/v1/coalesce", `{"graph":{"text":"node a\nnode b\nnode c\nnode d\nnode e\nnode f\nnode g\nnode h\nnode i\n"}}`, 400, `{"error":"no register count: set k in the request or the graph payload"}`},
	{"/v1/coalesce", `{"graph":{"text":"edge a b\nedge c d\nedge e f\nedge g h\nedge i j\nk 2\n"}}`, 400, `{"error":"graph has 10 vertices, limit 8"}`},
	{"/v1/coalesce", `{"graph":{"text":"k 2\nnode a\nnode b\nnode c\nnode d\nnode e\nnode f\nnode g\nnode h\nnode i\nbogus x\n"}}`, 400, `{"error":"graph: line 11: unknown directive \"bogus\""}`},
	{"/v1/coalesce", `{"graph":{"text":"k 2\nnode a\nnode b\nnode c\nnode d\nnode e\nnode f\nnode g\nnode h\nnode i\nedge a a\n"}}`, 400, `{"error":"graph: line 11: self-interference on \"a\""}`},
	{"/v1/coalesce", `{"graph":{"text":"k 2\nnode a\nnode b\nnode c\nnode d\nnode e\nnode f\nnode g\nnode h\nnode i\nnode j x\n"}}`, 400, `{"error":"graph: line 11: precolor must be ':\u003cint\u003e', got \"x\""}`},
	{"/v1/coalesce", `{"graph":{"text":"k 2\nnode a\nnode b\nnode c\nnode d\nnode e\nnode f\nnode g\nnode h\nnode i\nmove a j -1\n"}}`, 400, `{"error":"graph: line 11: bad move weight \"-1\""}`},
	{"/v1/coalesce", `{"graph":{"text":"k 2\nnode a\nnode b\nnode c\nnode d\nnode e\nnode f\nnode g\nnode h\nnode i\nk -1\n"}}`, 400, `{"error":"graph: line 11: bad register count \"-1\""}`},
	{"/v1/coalesce", `{"graph":{"text":"k 2\nnode a\nnode b\nnode c\nnode d\nnode e\nnode f\nnode g\nnode h\nnode i\nnode j :1\nedge i j\nmove j a 4\n"}}`, 400, `{"error":"graph has 10 vertices, limit 8"}`},
	{"/v1/coalesce", `{"graph":{"text":"node a\nnode b\nnode c\nnode d\nnode e\nnode f\nnode g\nnode h\nnode i\nnode j :y\n"},"k":2}`, 400, `{"error":"graph: line 10: bad precolor \":y\""}`},
	{"/v1/coalesce", `{"graph":{"text":"k 2\nnode a\nnode a\nnode b\nnode c ; comment\nnode d # comment\nnode e\nnode f\nnode g\nnode h\nnode i\nedge a i\n"}}`, 400, `{"error":"graph has 9 vertices, limit 8"}`},
	{"/v1/coalesce", `{"graph":{"text":"node a\nnode b\nnode c\nnode d\nnode e\nnode f\nnode g\nnode h\nnode i\n"},"k":0}`, 400, `{"error":"no register count: set k in the request or the graph payload"}`},
	{"/v1/coalesce", `{"graph":{"text":"k 0\nnode a\nnode b\nnode c\nnode d\nnode e\nnode f\nnode g\nnode h\nnode i\n"},"k":4}`, 400, `{"error":"graph has 9 vertices, limit 8"}`},
	{"/v1/coalesce", `{"graph":{"dimacs":"p edge 20 0\nc regcoal k 3\n"}}`, 400, `{"error":"graph has 20 vertices, limit 8"}`},
	{"/v1/allocate", `{"graph":{"dimacs":"p edge 20 0\n"},"k":2}`, 400, `{"error":"graph has 20 vertices, limit 8"}`},
	{"/v1/coalesce", `{"graph":{"dimacs":"p edge 20 0\n"}}`, 400, `{"error":"no register count: set k in the request or the graph payload"}`},
	{"/v1/coalesce", `{"graph":{"dimacs":"p edge 20 1\nc regcoal k 3\ne 1 21\n"}}`, 400, `{"error":"graph: dimacs line 3: bad edge vertex \"21\""}`},
	{"/v1/coalesce", `{"graph":{"dimacs":"p edge 20 1\nc regcoal k 3\ne 2 2\n"}}`, 400, `{"error":"graph: dimacs line 3: self-loop edge"}`},
	{"/v1/spill", `{"graph":{"dimacs":"p edge 20 2\nc regcoal k 3\nc regcoal name 5 x y\nc regcoal color 20 1\nc regcoal move 1 20 5\ne 1 2\ne 19 20\n"}}`, 400, `{"error":"graph has 20 vertices, limit 8"}`},
	{"/v1/coalesce", `{"graph":{"dimacs":"p edge 20 0\np edge 3 0\n"},"k":2}`, 400, `{"error":"graph: dimacs line 2: duplicate p line"}`},
	{"/v1/coalesce", `{"graph":{"dimacs":"p edge 5000000 0\n"},"k":2}`, 400, `{"error":"graph: dimacs line 1: vertex count 5000000 exceeds limit 4194304"}`},
	{"/v1/coalesce", `{"graph":{"dimacs":"c regcoal k 3\np edge 20 0\n"}}`, 400, `{"error":"graph: dimacs line 1: regcoal comment before p line"}`},
	{"/v1/coalesce", `{"graph":{"dimacs":"p edge 20 0\nc regcoal k 3\nx 1 2\n"}}`, 400, `{"error":"graph: dimacs line 3: unknown record \"x\""}`},
	{"/v1/coalesce", `{"graph":{"dimacs":"p edge 20 -1\n"},"k":2}`, 400, `{"error":"graph: dimacs line 1: bad edge count \"-1\""}`},
	{"/v1/coalesce", `{"graph":{"dimacs":"p edge 20 0\nc regcoal k 3\nc regcoal color 21 0\n"}}`, 400, `{"error":"graph: dimacs line 3: bad color vertex \"21\""}`},
	{"/v1/coalesce", `{"graph":{"dimacs":"p edge 20 0\nc regcoal k 3\nc regcoal move 1 2 -4\n"}}`, 400, `{"error":"graph: dimacs line 3: bad move weight \"-4\""}`},
	{"/v1/coalesce", `{"graph":{"dimacs":"p edge 20 0\nc regcoal k x\n"}}`, 400, `{"error":"graph: dimacs line 2: bad register count \"x\""}`},
	{"/v1/coalesce", `{"graph":{"dimacs":"p edge 8 1\nc regcoal k 2\ne 1 2\n"}}`, 200, `{"hash":"c09af0a2ef9881187a7c65850e4774bb72b822499f3779507d3b9fcb4b36c64a","vertices":8,"edges":1,"moves":0,"k":2,"strategy":"aggressive","coalesced_moves":0,"coalesced_weight":0,"remaining_weight":0,"colorable":true,"deadline_hit":false,"classes":[[0],[1],[2],[3],[4],[5],[6],[7]],"coloring":[1,0,0,0,0,0,0,0]}`},
	{"/v1/coalesce", `{"graph":{"dimacs":"p edge 20 0\nc regcoal bogus\n"},"k":2}`, 400, `{"error":"graph: dimacs line 2: unknown regcoal comment \"bogus\""}`},
	{"/v1/coalesce", `{"graph":{"dimacs":"p edge 20 0\nc regcoal k 3\n"},"k":0}`, 400, `{"error":"graph has 20 vertices, limit 8"}`},
	{"/v1/coalesce", `{"graph":{"dimacs":"p edge 20 0\nc regcoal k 0\n"}}`, 400, `{"error":"no register count: set k in the request or the graph payload"}`},
	{"/v1/coalesce", `{"graph":{"dimacs":"p edge 20 0\nc regcoal k 3\nc regcoal name 21 x\n"}}`, 400, `{"error":"graph: dimacs line 3: bad name vertex \"21\""}`},
	{"/v1/coalesce", `{"graph":{"dimacs":"p edge 20 1\nc regcoal k 3\ne 1\n"}}`, 400, `{"error":"graph: dimacs line 3: want 'e \u003cu\u003e \u003cv\u003e'"}`},
	{"/v1/coalesce", `{"graph":{"dimacs":"p edge 20 0\nc ordinary comment\nc regcoal k 3\nc regcoal color 3 -1\n"}}`, 400, `{"error":"graph: dimacs line 4: bad precolor \"-1\""}`},
	{"/v1/coalesce", `{"graph":{"dimacs":"p edge 20 0\n","k":2}}`, 400, `{"error":"graph: use exactly one of native fields, text, dimacs"}`},
	{"/v1/coalesce", `{"graph":{"vertices":9,"k":2}}`, 400, `{"error":"graph has 9 vertices, limit 8"}`},
	{"/v1/coalesce", `{"graph":{"names":["a","b","c","d","e","f","g","h","i"],"edges":[[0,1]]},"k":2}`, 400, `{"error":"graph has 9 vertices, limit 8"}`},
	{"/v1/coalesce/delta", `{"op":"create","graph":{"text":"k 2\nnode a\nnode b\nnode c\nnode d\nnode e\nnode f\nnode g\nnode h\nnode i\n"}}`, 400, `{"error":"graph carries 9 vertices, limit 8"}`},
	{"/v1/coalesce/delta", `{"op":"create","graph":{"dimacs":"p edge 20 0\nc regcoal k 3\n"}}`, 400, `{"error":"graph carries 20 vertices, limit 8"}`},
	{"/v1/coalesce/delta", `{"op":"create","graph":{"dimacs":"p edge 20 0\n"}}`, 400, `{"error":"graph carries 20 vertices, limit 8"}`},
	{"/v1/coalesce/delta", `{"op":"create","graph":{"text":"node a\nnode b\nnode c\nnode d\nnode e\nnode f\nnode g\nnode h\nnode i\nbogus\n"}}`, 400, `{"error":"parsing graph: graph: line 10: unknown directive \"bogus\""}`},
	{"/v1/coalesce/delta", `{"op":"create","graph":{"dimacs":"p edge 20 1\ne 1 21\n"},"k":2}`, 400, `{"error":"parsing graph: graph: dimacs line 2: bad edge vertex \"21\""}`},
	{"/v1/coalesce/delta", `{"op":"create","graph":{"text":"edge a b\nedge b c\nedge c d\nedge e f\nedge g h\nmove a c 2\n"},"k":2}`, 200, `{"session_id":"s-*","base_hash":"54299b4e035eee97704b999d49d0ddfdde612ae8124e635ad2009e6e9a2c9803","version":0,"path":"fresh","result":{"k":2,"vertices":8,"next_vertex":8,"colorable":true,"coalesced_moves":1,"coalesced_weight":2,"remaining_moves":0,"remaining_weight":0,"classes":[[0,2],[1],[3],[4],[5],[6],[7]],"coloring":[1,0,1,0,1,0,1,0]}}`},
	{"/v1/coalesce/delta", `{"op":"create","graph":{"dimacs":"p edge 20 0\nc regcoal k 3\n"},"k":0}`, 400, `{"error":"graph carries 20 vertices, limit 8"}`},
	{"/v1/batch", `{"kind":"coalesce","items":[{"graph":{"text":"k 2\nnode a\nnode b\nnode c\nnode d\nnode e\nnode f\nnode g\nnode h\nnode i\n"}},{"graph":{"dimacs":"p edge 20 0\nc regcoal k 3\n"}},{"graph":{"dimacs":"p edge 20 0\n"}},{"graph":{"text":"node a\nnode b\nnode c\nnode d\nnode e\nnode f\nnode g\nnode h\nnode i\nbogus\n"}},{"graph":{"vertices":2,"edges":[[0,1]],"k":2}}]}`, 200, `{"results":[{"error":"graph has 9 vertices, limit 8"},{"error":"graph has 20 vertices, limit 8"},{"error":"no register count: set k in the request or the graph payload"},{"error":"graph: line 10: unknown directive \"bogus\""},{"coalesce":{"hash":"f863456aa0f09817996e23f354eae55069ba1653ddcf1afb007f8bd15d8519fa","vertices":2,"edges":1,"moves":0,"k":2,"strategy":"aggressive","coalesced_moves":0,"coalesced_weight":0,"remaining_weight":0,"colorable":true,"deadline_hit":false,"classes":[[0],[1]],"coloring":[1,0]}}]}`},
	{"/v1/batch", `{"kind":"spill","items":[{"graph":{"dimacs":"p edge 20 1\nc regcoal k 3\ne 1 21\n"}},{"graph":{"text":"edge a b\nedge c d\nedge e f\nedge g h\nedge i j\n"},"k":2}]}`, 200, `{"results":[{"error":"graph: dimacs line 3: bad edge vertex \"21\""},{"error":"graph has 10 vertices, limit 8"}]}`},
}

func TestOverCapBodiesSingleNodeAndRouter(t *testing.T) {
	scfg := service.Config{MaxVertices: 8}
	_, single := startSingle(t, scfg)
	c := startCluster(t, 3, cluster.InProcessOptions{Service: scfg})
	for _, url := range []string{single.URL, c.RouterURL} {
		for _, tc := range overCapBodies {
			status, _, got := post(t, url+tc.path, []byte(tc.body))
			got = sessionIDs.ReplaceAll(got, []byte(`"session_id":"s-*"`))
			if status != tc.status || string(got) != tc.want {
				t.Errorf("%s%s %s:\n got (%d) %s\nwant (%d) %s", url, tc.path, tc.body, status, got, tc.status, tc.want)
			}
		}
	}
}

// A body over service.MaxBodyBytes answers the same 400 on a single
// node and through the router, on every endpoint that reads a body: both
// hops read it with service.ReadBody, which names the body the way the
// endpoint's decode errors do. A batch is read whole before it is
// decoded, so neither a valid batch nor a syntax error in front of the
// excess gets past the cap.
func TestOverMaxBodyBytesSingleNodeAndRouter(t *testing.T) {
	_, single := startSingle(t, service.Config{})
	c := startCluster(t, 2, cluster.InProcessOptions{})
	batch := `{"kind":"coalesce","items":[{"graph":{"text":"k 2\nedge a b\n"}}]}`
	for _, tc := range []struct{ path, prefix, what string }{
		{"/v1/coalesce", "", "request"},
		{"/v1/coalesce/delta", "", "delta request"},
		{"/v1/batch", "", "batch request"},
		{"/v1/batch", batch, "batch request"},
		{"/v1/batch", `{"kind":"coalesce","items":[}`, "batch request"},
	} {
		body := append([]byte(tc.prefix), bytes.Repeat([]byte(" "), service.MaxBodyBytes+1-len(tc.prefix))...)
		want := `{"error":"decoding ` + tc.what + `: http: request body too large"}`
		for _, url := range []string{single.URL, c.RouterURL} {
			status, _, got := post(t, url+tc.path, body)
			if status != http.StatusBadRequest || string(got) != want {
				t.Errorf("%s%s, %d bytes after %q: (%d) %s, want (400) %s", url, tc.path, len(body)-len(tc.prefix), tc.prefix, status, got, want)
			}
		}
	}
}

// hostileBodies declare 150 000 or 4 194 304 vertices in a few bytes of
// DIMACS, or 150 000 in ~2 MB of text: built, their bitsets would take
// 2.8 GB, 2.2 TB and (growing vertex by vertex) more than 1 GB. Under a
// cap of 1000 each answers its 400 without building anything.
func hostileBodies() (dimacs, huge, text string) {
	var b strings.Builder
	b.WriteString("k 2\n")
	for i := 0; i < 150000; i++ {
		fmt.Fprintf(&b, "node v%d\n", i)
	}
	return "p edge 150000 0\n", "p edge 4194304 0\n", b.String()
}

// The hostile bodies answer 400 on a single node, through the router, as
// batch items, as delta creates and in a replayed session log.
// TestHostileBodiesSurviveMemoryLimit runs this test again under a
// memory limit the unfixed readers exceed.
func TestHostileBodiesAnswer400(t *testing.T) {
	scfg := service.Config{MaxVertices: 1000}
	s, single := startSingle(t, scfg)
	c := startCluster(t, 2, cluster.InProcessOptions{Service: scfg})
	dimacs, huge, text := hostileBodies()
	type spec = service.GraphSpec
	for _, tc := range []struct {
		graph spec
		n     int
	}{
		{spec{Dimacs: dimacs}, 150000},
		{spec{Dimacs: huge}, 4194304},
		{spec{Text: text}, 150000},
	} {
		solve, err := json.Marshal(service.Request{Graph: &tc.graph, K: 2})
		if err != nil {
			t.Fatal(err)
		}
		create, err := json.Marshal(service.DeltaRequest{Op: "create", Graph: &tc.graph, K: 2})
		if err != nil {
			t.Fatal(err)
		}
		batch, err := json.Marshal(service.BatchSolveRequest{Items: []service.Request{{Graph: &tc.graph, K: 2}}})
		if err != nil {
			t.Fatal(err)
		}
		has := fmt.Sprintf(`{"error":"graph has %d vertices, limit 1000"}`, tc.n)
		carries := fmt.Sprintf(`{"error":"graph carries %d vertices, limit 1000"}`, tc.n)
		for _, url := range []string{single.URL, c.RouterURL} {
			for _, req := range []struct {
				path   string
				body   []byte
				status int
				want   string
			}{
				{"/v1/coalesce", solve, http.StatusBadRequest, has},
				{"/v1/spill", solve, http.StatusBadRequest, has},
				{"/v1/coalesce/delta", create, http.StatusBadRequest, carries},
				{"/v1/batch", batch, http.StatusOK, `{"results":[` + has[:len(has)-1] + `}]}`},
			} {
				status, _, got := post(t, url+req.path, req.body)
				if status != req.status || string(got) != req.want {
					t.Errorf("%s%s with %d vertices: (%d) %s, want (%d) %s", url, req.path, tc.n, status, got, req.status, req.want)
				}
			}
		}
		if err := replayLog(s, "s-0", "", create); err == nil || !strings.Contains(err.Error(), carries[10:len(carries)-2]) {
			t.Errorf("replaying a create with %d vertices: %v", tc.n, err)
		}
	}
}

// The hostile bodies are answered within a 2.5 GB address-space limit,
// which building any one of them exceeds: the test binary reruns
// TestHostileBodiesAnswer400 under ulimit -v and must pass.
func TestHostileBodiesSurviveMemoryLimit(t *testing.T) {
	if graph.RaceEnabled {
		t.Skip("the race detector reserves more address space than the limit")
	}
	if testing.Short() {
		t.Skip("reruns the test binary")
	}
	bash, err := exec.LookPath("bash")
	if err != nil {
		t.Skip("no bash to set the limit with")
	}
	cmd := exec.Command(bash, "-c", `ulimit -v 2500000 && exec "$0" -test.run '^TestHostileBodiesAnswer400$' -test.count 1`, os.Args[0])
	out, err := cmd.CombinedOutput()
	if err != nil || !strings.Contains(string(out), "PASS") {
		t.Fatalf("under ulimit -v 2500000: %v\n%s", err, out)
	}
}
