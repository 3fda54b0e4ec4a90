package service

// Service-side surface of the cluster's resharding protocol: cache key
// enumeration for the handoff stream. Sessions migrate as their op log,
// which the new owner's session store replays on first use.

import "strings"

// CacheKeys returns every resident cache key. The cluster's handoff
// engine walks these on a topology change to find the entries whose hash
// ranges were reassigned.
func (s *Server) CacheKeys() []string { return s.cache.Keys() }

// KeyRoutingHash extracts the canonical routing hash from a cache key.
// Keys have the shape "kind|strategies|hash" (see prepare); the hash is
// everything after the last separator — strategies are comma-joined and
// never contain one.
func KeyRoutingHash(key string) string {
	if i := strings.LastIndexByte(key, '|'); i >= 0 {
		return key[i+1:]
	}
	return key
}
