package service

// Cache-entry wire format for the cluster's tiered cache. Entries are
// canonical-space solutions, so they transfer between nodes losslessly:
// the receiving worker renders them into each request's own vertex
// numbering exactly as it renders its local hits. Shipping entries (not
// response bodies) is what makes peer fill correct for relabeled
// duplicates — two isomorphic requests share an entry but need different
// response bytes.

import (
	"encoding/json"
	"fmt"
)

// wireEntry is the JSON shape of a cache entry in flight between nodes.
type wireEntry struct {
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

// CachePeek returns the serialized cache entry for key without changing
// hit/miss counters (it does refresh LRU recency). It is the read side of
// the cluster's peer-fill protocol: the shard that owns a hash answers
// peers from its local cache.
func (s *Server) CachePeek(key string) ([]byte, bool) {
	e, ok := s.cache.Get(key)
	if !ok {
		return nil, false
	}
	data, err := json.Marshal(wireEntry{
		Classes:         e.classes,
		Coloring:        e.coloring,
		Spilled:         e.spilled,
		Strategy:        e.strategy,
		CoalescedMoves:  e.coalescedMoves,
		CoalescedWeight: e.coalescedWeight,
		RemainingWeight: e.remainingWeight,
		Colorable:       e.colorable,
		Spills:          e.spills,
		SpillCost:       e.spillCost,
		Optimal:         e.optimal,
		DeadlineHit:     e.deadlineHit,
	})
	if err != nil {
		return nil, false
	}
	return data, true
}

// CacheSeed installs a serialized entry (from CachePeek on a peer) into
// this node's cache under key. The entry lands subject to the same LRU
// and deadline-truncation rules as locally computed ones.
func (s *Server) CacheSeed(key string, data []byte) error {
	var w wireEntry
	if err := json.Unmarshal(data, &w); err != nil {
		return fmt.Errorf("cache seed: %w", err)
	}
	if w.Strategy == "" {
		return fmt.Errorf("cache seed: entry missing strategy")
	}
	s.cache.Put(key, &entry{
		classes:         w.Classes,
		coloring:        w.Coloring,
		spilled:         w.Spilled,
		strategy:        w.Strategy,
		coalescedMoves:  w.CoalescedMoves,
		coalescedWeight: w.CoalescedWeight,
		remainingWeight: w.RemainingWeight,
		colorable:       w.Colorable,
		spills:          w.Spills,
		spillCost:       w.SpillCost,
		optimal:         w.Optimal,
		deadlineHit:     w.DeadlineHit,
	})
	return nil
}
