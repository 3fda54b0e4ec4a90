package service

// Service-side surface of the cluster's resharding protocol: cache key
// enumeration for the handoff stream and session export/import built on
// the deterministic replay machinery.

import (
	"strings"

	"regcoal/internal/session"
)

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

// ExportSession serializes live session id for migration: the raw op
// log (owned by the caller's replication layer) pinned to the live
// session's base hash and version. See session.Store.Export.
func (s *Server) ExportSession(id string, create []byte, deltas [][]byte) (*session.ExportRecord, error) {
	return s.sessions.Export(id, create, deltas)
}

// ImportSession validates an exported session record and rebuilds the
// session by deterministic replay, registering it under its original id.
// Validation failures and replay rejections are ClientErrors (4xx via
// ErrorStatus); a session already live under the id is the replay path's
// 409.
func (s *Server) ImportSession(rec *session.ExportRecord) error {
	return s.sessions.Import(rec, s.ReplaySession)
}
