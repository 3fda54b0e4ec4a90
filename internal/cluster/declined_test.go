package cluster_test

// A request whose named strategies all decline its instance answers 400,
// naming each member and its reason, on a single node and through the
// router alike. Every worker declines the same instance the same way, so
// the router must not retry it, and the worker counts a bad request, not
// an error. The exact member's envelope (exact.CheckEnvelope) is pinned
// at its edges: 48 vertices and 14 moves answer, one more of either
// declines.

import (
	"fmt"
	"net/http"
	"strings"
	"testing"

	"regcoal/internal/cluster"
	"regcoal/internal/service"
)

// pathBody is a native solve body: a path on n vertices with the moves
// (i, i+2) for i < moves, k 2, raced by the given strategies only.
func pathBody(n, moves int, strategies string) string {
	var b strings.Builder
	fmt.Fprintf(&b, `{"graph":{"vertices":%d,"edges":[`, n)
	for i := 0; i+1 < n; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "[%d,%d]", i, i+1)
	}
	b.WriteString(`],"moves":[`)
	for i := 0; i < moves; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"x":%d,"y":%d,"weight":1}`, i, i+2)
	}
	fmt.Fprintf(&b, `]},"k":2,"strategies":%s}`, strategies)
	return b.String()
}

const cycle4 = `{"vertices":4,"edges":[[0,1],[1,2],[2,3],[3,0]],"moves":[{"x":0,"y":2,"weight":1}],"k":2}`

func TestAllDeclinedPortfolioAnswers400(t *testing.T) {
	cases := []struct {
		path, body string
		status     int
		want       string // the error body; "" when 200
	}{
		{"/v1/coalesce", pathBody(60, 0, `["exact"]`), 400,
			`{"error":"no strategy applies to this instance: exact: instance outside exact envelope (moves 0 \u003e 14 or vertices 60 \u003e 48)"}`},
		{"/v1/coalesce", `{"graph":` + cycle4 + `,"strategies":["chordal-inc"]}`, 400,
			`{"error":"no strategy applies to this instance: chordal-inc: coalesce: graph is not chordal"}`},
		{"/v1/coalesce", `{"graph":` + cycle4 + `,"strategies":["exact","chordal-inc"]}`, 200, ""},
		{"/v1/coalesce", pathBody(48, 14, `["exact"]`), 200, ""},
		{"/v1/coalesce", pathBody(49, 14, `["exact"]`), 400,
			`{"error":"no strategy applies to this instance: exact: instance outside exact envelope (moves 14 \u003e 14 or vertices 49 \u003e 48)"}`},
		{"/v1/coalesce", pathBody(48, 15, `["exact","chordal-inc"]`), 200, ""},
		{"/v1/coalesce", pathBody(48, 15, `["exact"]`), 400,
			`{"error":"no strategy applies to this instance: exact: instance outside exact envelope (moves 15 \u003e 14 or vertices 48 \u003e 48)"}`},
		{"/v1/allocate", pathBody(8, 1, `["spill+optimistic","spill+briggs+george"]`), 400,
			`{"error":"no strategy applies to this instance: spill+briggs+george: graph is greedy-2-colorable, spill-first adds nothing over briggs+george; spill+optimistic: graph is greedy-2-colorable, spill-first adds nothing over optimistic"}`},
		{"/v1/spill", pathBody(65, 0, `["exact"]`), 400,
			`{"error":"no strategy applies to this instance: exact: spill: instance outside exact envelope (\u003e 64 vertices)"}`},
		{"/v1/batch", `{"kind":"coalesce","items":[` + pathBody(60, 0, `["exact"]`) + `,{"graph":` + cycle4 + `}]}`, 200, ""},
	}

	_, single := startSingle(t, service.Config{Workers: 2})
	c := startCluster(t, 3, cluster.InProcessOptions{Service: service.Config{Workers: 2}})
	var want400 int64
	for _, tc := range cases {
		wantStatus, _, want := post(t, single.URL+tc.path, []byte(tc.body))
		if wantStatus != tc.status || (tc.want != "" && string(want) != tc.want) {
			t.Errorf("single %s %.60s:\n got (%d) %s\nwant (%d) %s", tc.path, tc.body, wantStatus, want, tc.status, tc.want)
		}
		gotStatus, _, got := post(t, c.RouterURL+tc.path, []byte(tc.body))
		if gotStatus != wantStatus || string(got) != string(want) {
			t.Errorf("router %s %.60s: (%d) %s, single node (%d) %s", tc.path, tc.body, gotStatus, got, wantStatus, want)
		}
		if tc.status == http.StatusBadRequest {
			want400++
		}
		if tc.path == "/v1/batch" {
			if !strings.Contains(string(want), `{"error":"no strategy applies to this instance: exact: instance outside exact envelope`) {
				t.Errorf("batch entry does not carry the decline: %s", want)
			}
			want400++ // the declined entry
		}
	}

	st := c.Router.Stats()
	if r, f := st.Int("router_retries"), st.Int("router_failovers"); r != 0 || f != 0 {
		t.Errorf("router_retries %d, router_failovers %d; a decline must not be retried", r, f)
	}
	var bad, errs int64
	for _, w := range c.Workers {
		bad += w.Service.Metrics().BadRequests.Load()
		errs += w.Service.Metrics().Errors.Load()
	}
	if errs != 0 || bad != want400 {
		t.Errorf("workers counted %d errors and %d bad requests, want 0 and %d", errs, bad, want400)
	}
}
