package service

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"reflect"
	"strconv"
	"testing"
)

// refWireEntry is the cache-entry wire struct peers exchanged before the
// entry became its own wire format: the bytes a peer fill, push or
// handoff carries must stay the ones it marshals.
type refWireEntry struct {
	Classes  [][]int `json:"classes,omitempty"`
	Coloring []int   `json:"coloring,omitempty"`
	Spilled  []int   `json:"spilled,omitempty"`

	Strategy        string `json:"strategy"`
	CoalescedMoves  int    `json:"coalesced_moves,omitempty"`
	CoalescedWeight int64  `json:"coalesced_weight,omitempty"`
	RemainingWeight int64  `json:"remaining_weight,omitempty"`
	Colorable       bool   `json:"colorable,omitempty"`
	Spills          int    `json:"spills,omitempty"`
	SpillCost       int64  `json:"spill_cost,omitempty"`
	Optimal         bool   `json:"optimal,omitempty"`
	DeadlineHit     bool   `json:"deadline_hit,omitempty"`
}

// randomInts returns nil, an empty slice or up to 8 small ints.
func randomInts(rng *rand.Rand) []int {
	switch rng.Intn(4) {
	case 0:
		return nil
	case 1:
		return []int{}
	}
	out := make([]int, 1+rng.Intn(8))
	for i := range out {
		out[i] = rng.Intn(40) - 1
	}
	return out
}

// randomEntry fills every field, each left zero one time in three.
func randomEntry(rng *rand.Rand) *entry {
	pick := func() bool { return rng.Intn(3) > 0 }
	e := &entry{Coloring: randomInts(rng), Spilled: randomInts(rng)}
	if pick() {
		e.Classes = make([][]int, rng.Intn(5))
		for i := range e.Classes {
			e.Classes[i] = randomInts(rng)
		}
	}
	if pick() {
		e.Strategy = []string{"aggressive", "briggs+george", "irc", "exact", "spill+optimistic"}[rng.Intn(5)]
	}
	if pick() {
		e.CoalescedMoves = rng.Intn(100)
	}
	if pick() {
		e.CoalescedWeight = rng.Int63() - rng.Int63()
	}
	if pick() {
		e.RemainingWeight = rng.Int63n(1 << 40)
	}
	e.Colorable = rng.Intn(2) == 0
	if pick() {
		e.Spills = rng.Intn(30)
	}
	if pick() {
		e.SpillCost = rng.Int63n(1 << 50)
	}
	e.Optimal = rng.Intn(2) == 0
	e.DeadlineHit = rng.Intn(2) == 0
	return e
}

func TestCacheEntryWireBytesPinned(t *testing.T) {
	s, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 10000; i++ {
		e := randomEntry(rng)
		want, err := json.Marshal(refWireEntry{
			Classes: e.Classes, Coloring: e.Coloring, Spilled: e.Spilled,
			Strategy: e.Strategy, CoalescedMoves: e.CoalescedMoves,
			CoalescedWeight: e.CoalescedWeight, RemainingWeight: e.RemainingWeight,
			Colorable: e.Colorable, Spills: e.Spills, SpillCost: e.SpillCost,
			Optimal: e.Optimal, DeadlineHit: e.DeadlineHit,
		})
		if err != nil {
			t.Fatal(err)
		}
		// A fresh key per entry: a truncated entry never replaces a
		// complete one.
		key := strconv.Itoa(i)
		s.cache.Put(key, e)
		got, ok := s.CachePeek(key)
		if !ok || !bytes.Equal(got, want) {
			t.Fatalf("entry %d: peek %s, reference wire %s", i, got, want)
		}
		// What a peer seeds from those bytes reads back as the same entry.
		err = s.CacheSeed("seeded-"+key, want)
		if e.Strategy == "" {
			if err == nil {
				t.Fatalf("entry %d: seeded without a strategy", i)
			}
			continue
		}
		if err != nil {
			t.Fatalf("entry %d: seed: %v", i, err)
		}
		var ref refWireEntry
		if err := json.Unmarshal(want, &ref); err != nil {
			t.Fatal(err)
		}
		seeded, _ := s.cache.Get("seeded-" + key)
		refEntry := entry(ref)
		if !reflect.DeepEqual(seeded, refEntry) {
			t.Fatalf("entry %d: seeded %+v, reference decode %+v", i, seeded, refEntry)
		}
	}
}
