package loadgen

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"

	"regcoal/internal/graph"
	"regcoal/internal/service"
)

// Every encoding must produce a payload whose decoded graph matches the
// instance it was built from — the property response validation relies on.
func TestBuildJobsEncodingsRoundTrip(t *testing.T) {
	for _, format := range []string{"native", "text", "dimacs"} {
		jobs, err := BuildJobs("tiny", 20060408, true, JobOptions{Format: format})
		if err != nil {
			t.Fatalf("%s: %v", format, err)
		}
		if len(jobs) == 0 {
			t.Fatalf("%s: no jobs", format)
		}
		for _, job := range jobs {
			spec, err := specFor(job.File, format)
			if err != nil {
				t.Fatalf("%s: %v", format, err)
			}
			decoded, err := spec.ToFile(0)
			if err != nil {
				t.Fatalf("%s/%s: %v", format, job.Name, err)
			}
			if decoded.G.N() != job.File.G.N() || decoded.G.E() != job.File.G.E() || decoded.K != job.File.K {
				t.Fatalf("%s/%s: decoded %d/%d/k=%d, want %d/%d/k=%d", format, job.Name,
					decoded.G.N(), decoded.G.E(), decoded.K, job.File.G.N(), job.File.G.E(), job.File.K)
			}
		}
	}
}

func TestBuildJobsUnknownFamily(t *testing.T) {
	if _, err := BuildJobs("nope", 1, true, JobOptions{}); err == nil {
		t.Fatal("unknown family must fail")
	}
}

func TestValidateSpillCatchesBadResponses(t *testing.T) {
	g := graph.New(3)
	g.AddClique(0, 1, 2)
	f := &graph.File{G: g, K: 2}
	good := &service.SpillResult{
		Vertices: 3, Edges: 3, K: 2,
		Spilled: []int{2}, Spills: 1, SpillCost: 1,
		Coloring: []int{0, 1, -1},
	}
	if err := ValidateSpill(f, good); err != nil {
		t.Fatalf("valid response rejected: %v", err)
	}
	bad := *good
	bad.Coloring = []int{0, 0, -1} // interfering pair shares a color
	if err := ValidateSpill(f, &bad); err == nil {
		t.Fatal("improper residual coloring accepted")
	}
	bad = *good
	bad.Spills = 2 // counter disagrees with the spill set
	if err := ValidateSpill(f, &bad); err == nil {
		t.Fatal("spill-count mismatch accepted")
	}
	bad = *good
	bad.Coloring = []int{0, 1, 1} // spilled vertex carries a color
	if err := ValidateSpill(f, &bad); err == nil {
		t.Fatal("colored spill accepted")
	}
}

func TestFetchStats(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/stats" {
			http.NotFound(w, r)
			return
		}
		w.Write([]byte(`{"router_proxied":7,"requests":{"spill":3}}`))
	}))
	defer ts.Close()
	stats, err := FetchStats(context.Background(), nil, ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if string(stats) != `{"router_proxied":7,"requests":{"spill":3}}` {
		t.Fatalf("stats = %s", stats)
	}
}
