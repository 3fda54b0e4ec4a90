package cluster_test

// Property tests for replica-set derivation. The replica set of a key is
// the first R distinct nodes of its ring sequence, so three properties
// must hold by construction: the owners are distinct and led by the
// primary, the set is a pure function of the node *set* (construction
// order must not matter), and removing one node reassigns only the
// ranges that node carried — every other key's sequence is unchanged
// except for the victim disappearing from it.

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"regcoal/internal/cluster"
)

func TestReplicaSetProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(16)
		r := 1 + rng.Intn(4)
		nodes := make([]string, n)
		for i := range nodes {
			nodes[i] = fmt.Sprintf("http://node-%d-%d:8080", trial, i)
		}
		ring := cluster.NewRing(nodes)

		shuffled := append([]string(nil), nodes...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		ringShuffled := cluster.NewRing(shuffled)

		victim := nodes[rng.Intn(n)]
		remaining := slices.DeleteFunc(append([]string(nil), nodes...), func(s string) bool { return s == victim })
		ringWithout := cluster.NewRing(remaining)

		for k := 0; k < 64; k++ {
			key := fmt.Sprintf("key-%d-%d", trial, k)

			reps := ring.Replicas(key, r)
			if want := min(r, n); len(reps) != want {
				t.Fatalf("trial %d: %d nodes, R=%d: replica set has %d members, want %d", trial, n, r, len(reps), want)
			}
			if reps[0] != ring.Owner(key) {
				t.Fatalf("trial %d: replica set %v not led by owner %s", trial, reps, ring.Owner(key))
			}
			for i, a := range reps {
				for _, b := range reps[i+1:] {
					if a == b {
						t.Fatalf("trial %d: duplicate owner %s in replica set %v", trial, a, reps)
					}
				}
			}

			// Ownership is a function of the node set, not its order.
			if got := ringShuffled.Replicas(key, r); !slices.Equal(got, reps) {
				t.Fatalf("trial %d: shuffled construction changed replica set: %v vs %v", trial, got, reps)
			}

			// Minimal movement: the survivors' relative sequence is
			// untouched by removing one node — only the victim's slots
			// shift, which keeps both primaries and standby order stable
			// across single-node failures.
			seq := ring.Sequence(key)
			want := slices.DeleteFunc(append([]string(nil), seq...), func(s string) bool { return s == victim })
			if got := ringWithout.Sequence(key); !slices.Equal(got, want) {
				t.Fatalf("trial %d: removing %s reshuffled the sequence:\nwith:    %v\nwithout: %v\nwant:    %v",
					trial, victim, seq, got, want)
			}
		}
	}
}
