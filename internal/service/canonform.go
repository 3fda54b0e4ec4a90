package service

// The forwarded canonical form. A cluster router canonicalizes every
// native solve or create body it routes, so it sends the form it routed
// by to the worker on CanonHeader:
//
//	X-Regcoal-Canon: <64-hex hash>:<perm[0]>,<perm[1]>,…
//
// The worker verifies the form (graph.VerifyCanonical: perm is a
// permutation, and the serialization under it hashes to hash) instead of
// recomputing it, and falls back to graph.CanonicalForm when the header
// is absent or fails. The form depends only on the body and the canon
// version, never on the topology, so it carries no epoch: a stale,
// corrupted or other-build form fails verification and costs one
// recompute. Only this package writes and reads the header, as it owns
// the request schema.

import (
	"strconv"
	"strings"

	"regcoal/internal/graph"
)

// maxCanonHeader bounds a CanonHeader value (about 10 000 vertices),
// well under net/http's default 1 MiB limit on request headers, which
// every server here uses. A larger graph's form is not forwarded; its
// worker recomputes it.
const maxCanonHeader = 64 << 10

// keyAndForm returns a routing key and the CanonHeader value forwarding
// c, or "" for both when c is nil. form is "" when it would exceed
// maxCanonHeader.
func keyAndForm(c *graph.Canonical) (key, form string) {
	if c == nil {
		return "", ""
	}
	// Every perm entry takes at least two bytes: a digit and a comma.
	if len(c.Hash)+2*len(c.Perm) > maxCanonHeader {
		return c.Hash, ""
	}
	var num [20]byte
	digits := len(strconv.AppendInt(num[:0], int64(len(c.Perm)), 10))
	var b strings.Builder
	b.Grow(len(c.Hash) + 1 + len(c.Perm)*(digits+1))
	b.WriteString(c.Hash)
	b.WriteByte(':')
	for i, p := range c.Perm {
		if i > 0 {
			b.WriteByte(',')
		}
		b.Write(strconv.AppendInt(num[:0], int64(p), 10))
	}
	if b.Len() > maxCanonHeader {
		return c.Hash, ""
	}
	return c.Hash, b.String()
}

// verifyForm returns the canonical form of f that CanonHeader value v
// forwards, or nil when v is not a hash, a colon and exactly N(f)
// comma-separated decimal perm entries, or its form does not verify.
func verifyForm(f *graph.File, v string) *graph.Canonical {
	hash, list, ok := strings.Cut(v, ":")
	if !ok {
		return nil
	}
	n := f.G.N()
	perm := make([]graph.V, n)
	i := 0
	for j := range perm {
		if j > 0 {
			if i == len(list) || list[i] != ',' {
				return nil
			}
			i++
		}
		start, x := i, 0
		for ; i < len(list) && list[i]-'0' <= 9; i++ {
			if x = 10*x + int(list[i]-'0'); x >= n {
				return nil
			}
		}
		if i == start {
			return nil
		}
		perm[j] = graph.V(x)
	}
	if i != len(list) {
		return nil
	}
	return graph.VerifyCanonical(f, hash, perm)
}

// canonicalForm returns f's canonical form: the one header value form
// forwards when it verifies, else a fresh graph.CanonicalForm. A form
// that is present but refused is counted and recomputed, never trusted.
func (s *Server) canonicalForm(f *graph.File, form string) *graph.Canonical {
	if form != "" {
		if c := verifyForm(f, form); c != nil {
			s.metrics.CanonForwarded.Add(1)
			return c
		}
		s.metrics.CanonForwardRejected.Add(1)
	}
	return graph.CanonicalForm(f)
}
