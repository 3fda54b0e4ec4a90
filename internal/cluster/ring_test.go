package cluster

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"regcoal/internal/corpus"
	"regcoal/internal/graph"
	"regcoal/internal/service"
)

func TestRingDeterministicAcrossNodeOrder(t *testing.T) {
	nodes := []string{"http://c:1", "http://a:1", "http://b:1"}
	shuffled := []string{"http://b:1", "http://c:1", "http://a:1"}
	r1 := NewRing(nodes)
	r2 := NewRing(shuffled)
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("key-%d", i)
		if r1.Owner(key) != r2.Owner(key) {
			t.Fatalf("owner of %q differs across node order: %q vs %q", key, r1.Owner(key), r2.Owner(key))
		}
		seq := r1.Sequence(key)
		if len(seq) != 3 {
			t.Fatalf("sequence of %q has %d nodes, want 3", key, len(seq))
		}
		if seq[0] != r1.Owner(key) {
			t.Fatalf("sequence of %q starts at %q, owner is %q", key, seq[0], r1.Owner(key))
		}
		seen := map[string]bool{}
		for _, n := range seq {
			if seen[n] {
				t.Fatalf("sequence of %q repeats %q", key, n)
			}
			seen[n] = true
		}
	}
}

func TestRingBalance(t *testing.T) {
	nodes := []string{"http://a:1", "http://b:1", "http://c:1"}
	r := NewRing(nodes)
	counts := map[string]int{}
	const keys = 3000
	for i := 0; i < keys; i++ {
		counts[r.Owner(fmt.Sprintf("hash-%d", i))]++
	}
	for _, n := range nodes {
		if counts[n] < keys/10 {
			t.Fatalf("node %s owns only %d/%d keys — ring badly imbalanced: %v", n, counts[n], keys, counts)
		}
	}
}

func TestRingFallbackKeyDeterministic(t *testing.T) {
	r := NewRing([]string{"http://a:1", "http://b:1"})
	owner := r.Owner("")
	if owner == "" {
		t.Fatal("empty-key owner is empty on a non-empty ring")
	}
	for i := 0; i < 5; i++ {
		if r.Owner("") != owner {
			t.Fatal("fallback owner not stable")
		}
	}
}

// placement pins where the ring puts keys on servebench's node set
// (http://w0..w2): for the fallback key "" and then for the hex SHA-256
// of "placement-0".."placement-63", the indices of Replicas(key, 2),
// under 64 FNV-1a vnodes per node. A ring change that moves keys (and so
// servebench's shard shares) must update it deliberately.
var placement = []string{
	"02",
	"21", "21", "21", "02", "02", "01", "02", "10",
	"10", "21", "21", "01", "21", "21", "02", "21",
	"01", "10", "02", "21", "21", "01", "02", "02",
	"02", "21", "10", "02", "10", "02", "21", "21",
	"10", "10", "10", "02", "02", "12", "01", "10",
	"02", "02", "10", "10", "21", "02", "21", "10",
	"10", "10", "01", "21", "10", "10", "12", "02",
	"02", "10", "02", "21", "10", "01", "10", "01",
}

func TestRingPlacementPinned(t *testing.T) {
	nodes := []string{"http://w0", "http://w1", "http://w2"}
	r := NewRing(nodes)
	keys := []string{""}
	for i := 0; i < 64; i++ {
		sum := sha256.Sum256([]byte("placement-" + strconv.Itoa(i)))
		keys = append(keys, hex.EncodeToString(sum[:]))
	}
	for i, key := range keys {
		want := placement[i]
		reps := r.Replicas(key, 2)
		got := ""
		for _, n := range reps {
			got += strings.TrimPrefix(n, "http://w")
		}
		if got != want || r.Owner(key) != nodes[want[0]-'0'] {
			t.Errorf("key %d (%q): owner %s, replicas %v; want replicas w%c,w%c", i, key, r.Owner(key), reps, want[0], want[1])
		}
	}
}

// relabeledFile applies a vertex permutation to an instance: the same
// abstract graph under different numbering, as a client resubmitting an
// instance it renamed would send it.
func relabeledFile(f *graph.File, perm []int) *graph.File {
	g := graph.New(f.G.N())
	for _, e := range f.G.Edges() {
		g.AddEdge(graph.V(perm[e[0]]), graph.V(perm[e[1]]))
	}
	for _, a := range f.G.Affinities() {
		g.AddAffinity(graph.V(perm[a.X]), graph.V(perm[a.Y]), a.Weight)
	}
	for v := 0; v < f.G.N(); v++ {
		if c, ok := f.G.Precolored(graph.V(v)); ok {
			g.SetPrecolored(graph.V(perm[v]), c)
		}
	}
	return &graph.File{G: g, K: f.K}
}

// specFromFile converts an instance to a native request spec.
func specFromFile(f *graph.File) *service.GraphSpec {
	spec := &service.GraphSpec{Vertices: f.G.N(), K: f.K}
	for _, e := range f.G.Edges() {
		spec.Edges = append(spec.Edges, [2]int{int(e[0]), int(e[1])})
	}
	for _, a := range f.G.Affinities() {
		spec.Moves = append(spec.Moves, service.Move{X: int(a.X), Y: int(a.Y), Weight: a.Weight})
	}
	for v := 0; v < f.G.N(); v++ {
		if c, ok := f.G.Precolored(graph.V(v)); ok {
			spec.Precolored = append(spec.Precolored, service.Pin{V: v, Color: c})
		}
	}
	return spec
}

// Every corpus family's relabeled duplicates must route to the same
// shard: the routing key is the canonical graph hash, which is invariant
// under renumbering whenever Weisfeiler–Leman refinement discriminates
// the vertices (all irregular families). The permutation family is the
// documented exception — its graphs are exactly the symmetric instances
// WL cannot separate (see the internal/graph canon.go soundness comment),
// so its duplicates may land on different shards, costing a cache miss
// but never a wrong answer. This test pins both behaviors.
func TestRelabeledDuplicatesRouteToSameShard(t *testing.T) {
	fams, err := corpus.Select("all")
	if err != nil {
		t.Fatal(err)
	}
	insts, err := corpus.BuildAll(fams, corpus.Params{Seed: 20060408, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	ring := NewRing([]string{"http://w0:1", "http://w1:1", "http://w2:1"})
	rng := rand.New(rand.NewSource(7))
	invariantFamilies := map[string]bool{}
	for _, inst := range insts {
		if inst.Family == "permutation" {
			continue
		}
		req := &service.Request{Graph: specFromFile(inst.File)}
		hash := service.RoutingHash(req, 0)
		if hash == "" {
			t.Fatalf("%s: no routing hash", inst.Name)
		}
		owner := ring.Owner(hash)
		for trial := 0; trial < 3; trial++ {
			perm := rng.Perm(inst.File.G.N())
			dup := &service.Request{Graph: specFromFile(relabeledFile(inst.File, perm))}
			dupHash := service.RoutingHash(dup, 0)
			if dupHash != hash {
				t.Fatalf("%s/%s: relabeled duplicate hashes %s, original %s", inst.Family, inst.Name, dupHash, hash)
			}
			if got := ring.Owner(dupHash); got != owner {
				t.Fatalf("%s/%s: relabeled duplicate routed to %s, original to %s", inst.Family, inst.Name, got, owner)
			}
		}
		invariantFamilies[inst.Family] = true
	}
	if len(invariantFamilies) != len(fams)-1 {
		t.Fatalf("covered %d families, want %d (all but permutation)", len(invariantFamilies), len(fams)-1)
	}
}
