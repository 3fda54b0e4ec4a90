package service

// Cache-entry wire format for the cluster's tiered cache: an entry's own
// JSON form (see entry's tags). Entries are canonical-space solutions,
// so they transfer between nodes losslessly: the receiving worker
// renders them into each request's own vertex numbering exactly as it
// renders its local hits. Shipping entries (not response bodies) is what
// makes peer fill correct for relabeled duplicates — two isomorphic
// requests share an entry but need different response bytes.

import (
	"encoding/json"
	"fmt"
)

// CachePeek returns the serialized cache entry for key without changing
// hit/miss counters (it does refresh LRU recency). It is the read side of
// the cluster's peer-fill protocol: the shard that owns a hash answers
// peers from its local cache.
func (s *Server) CachePeek(key string) ([]byte, bool) {
	e, ok := s.cache.Get(key)
	if !ok {
		return nil, false
	}
	data, err := json.Marshal(&e)
	if err != nil {
		return nil, false
	}
	return data, true
}

// CacheSeed installs a serialized entry (from CachePeek on a peer) into
// this node's cache under key. The entry lands subject to the same LRU
// and deadline-truncation rules as locally computed ones.
func (s *Server) CacheSeed(key string, data []byte) error {
	e := new(entry)
	if err := json.Unmarshal(data, e); err != nil {
		return fmt.Errorf("cache seed: %w", err)
	}
	if e.Strategy == "" {
		return fmt.Errorf("cache seed: entry missing strategy")
	}
	s.cache.Put(key, e)
	return nil
}
