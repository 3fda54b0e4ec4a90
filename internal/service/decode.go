package service

// One-pass native request decode. A solve body or a delta create body
// in the native graph schema is scanned once and its graph built
// directly (graph.FromEdges), with no GraphSpec, [][2]int or []Move in
// between. The scanner accepts only the plain subset of JSON on which
// every decoder of these bodies agrees: the exact lower-case keys of
// the schema, each at most once; int64 integers without fraction,
// exponent or leading zero; strings without escapes or non-ASCII bytes;
// edge pairs of exactly two elements; no null; nothing but whitespace
// after the top-level object; and a graph nativeGraph builds without
// error. On any other byte it declines, and the caller decodes the body
// exactly as it did before the scanner existed: strict encoding/json
// plus ToFile. So every error body is the old code's by construction.
// A cluster router reads a body with these same decoders (RouteKey,
// DeltaRouteKey), so it routes by the hash the worker computes.

import (
	"bytes"
	"encoding/json"
	"errors"
	"sync"

	"regcoal/internal/graph"
)

// decodeSolve decodes a solve body. When the scanner accepts it, f is the
// built graph and req carries the scalar fields (Graph nil); otherwise f
// is nil and req is the strict decode, whose graph prepare builds.
func decodeSolve(body []byte, maxVertices int) (req Request, f *graph.File, err error) {
	if req, f, ok := scanSolve(body, maxVertices); ok {
		return req, f, nil
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return Request{}, nil, badRequest("decoding request: %v", err)
	}
	return req, nil, nil
}

// decodeDelta decodes a delta-endpoint body and, for a create, builds its
// base graph in the same pass: scanned when the scanner accepts the body,
// else strictly decoded and built by ToFile. Every error is the 400 the
// handler answers with.
func decodeDelta(body []byte, maxVertices int) (DeltaRequest, *graph.File, error) {
	if k, f, ok := scanCreate(body, maxVertices); ok {
		return DeltaRequest{Op: "create", K: k}, f, nil
	}
	var req DeltaRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return DeltaRequest{}, nil, badRequest("decoding delta request: %v", err)
	}
	if req.Op != "create" {
		return req, nil, nil
	}
	if req.Graph == nil {
		return req, nil, badRequest("create requires a graph")
	}
	f, err := req.Graph.ToFile(maxVertices)
	var big *graph.SizeError
	switch {
	case errors.As(err, &big):
		return req, nil, badRequest("%v", err)
	case err != nil:
		return req, nil, badRequest("parsing graph: %v", err)
	}
	return req, f, nil
}

// RouteKey maps a /v1/{coalesce,allocate,spill} body to the key a cluster
// router shards it by, and to the CanonHeader value that forwards the
// key's canonical form. It reads the body with the worker's own decode
// (decodeSolve, then ToFile when the scanner declined), so the key is
// the canonical hash the worker will compute. key is "" when the worker
// answers 400 without canonicalizing (a decode or graph error, or no
// register count): such a body goes to the fallback shard. form is ""
// with no key, or when it is over the header bound.
func RouteKey(body []byte, maxVertices int) (key, form string) {
	req, f, err := decodeSolve(body, maxVertices)
	if err == nil && f == nil && req.Graph != nil {
		f, err = req.Graph.ToFile(maxVertices)
	}
	if err != nil || f == nil {
		return "", ""
	}
	return keyAndForm(routeForm(f, req.K))
}

// DeltaRouteKey maps a /v1/coalesce/delta body to its routing key and
// CanonHeader value through the worker's own decode (decodeDelta). A
// create routes by the canonical hash of its graph — the base_hash the
// worker will mint, so the create lands where its deltas will — with its
// form. Any other op routes by the base_hash it echoes (no form), or to
// the fallback shard without one, as does a body the worker refuses.
func DeltaRouteKey(body []byte, maxVertices int) (key, form string) {
	req, f, err := decodeDelta(body, maxVertices)
	switch {
	case err != nil:
		return "", ""
	case req.Op == "create":
		return keyAndForm(routeForm(f, req.K))
	}
	return req.BaseHash, ""
}

// scanSolve scans a solve body; ok is false when the scanner declines.
func scanSolve(body []byte, maxVertices int) (req Request, f *graph.File, ok bool) {
	sc := getScanner(body)
	defer putScanner(sc)
	if !sc.body(solveFields) {
		return Request{}, nil, false
	}
	g, err := nativeGraph(sc.vertices, sc.edges, sc.moves, sc.pins, maxVertices)
	if err != nil {
		return Request{}, nil, false
	}
	return sc.req, &graph.File{G: g, K: sc.graphK}, true
}

// scanCreate scans a delta create body: {"op":"create","graph":…,"k":…}.
func scanCreate(body []byte, maxVertices int) (k int, f *graph.File, ok bool) {
	sc := getScanner(body)
	defer putScanner(sc)
	if !sc.body(createFields) || !sc.create {
		return 0, nil, false
	}
	g, err := nativeGraph(sc.vertices, sc.edges, sc.moves, sc.pins, maxVertices)
	if err != nil {
		return 0, nil, false
	}
	return sc.req.K, &graph.File{G: g, K: sc.graphK}, true
}

// The keys of each object in the schema.
var (
	solveFields  = []string{"graph", "k", "deadline_ms", "strategies", "no_cache"}
	createFields = []string{"op", "graph", "k"}
	graphFields  = []string{"vertices", "edges", "moves", "precolored", "k"}
	moveFields   = []string{"x", "y", "weight"}
	pinFields    = []string{"v", "color"}
)

// scanner is the decoder's state: the body, a cursor, the request's
// scalar fields, and the graph's parts until build. Its buffers are
// pooled, so a warm scan allocates only what the request keeps.
type scanner struct {
	b   []byte
	i   int
	req Request
	// create records "op":"create" on a delta body.
	create bool

	vertices, graphK int
	edges            []graph.V // endpoint pairs, in body order
	moves            []graph.Affinity
	pins             []int // vertex, color pairs, in body order
}

var scanners = sync.Pool{New: func() any { return new(scanner) }}

// maxPooledScratch bounds the buffers a pooled scanner keeps, so one huge
// body does not pin its scratch for the life of the process.
const maxPooledScratch = 1 << 16

func getScanner(body []byte) *scanner {
	sc := scanners.Get().(*scanner)
	sc.b, sc.i = body, 0
	return sc
}

func putScanner(sc *scanner) {
	if cap(sc.edges) > maxPooledScratch || cap(sc.moves) > maxPooledScratch || cap(sc.pins) > maxPooledScratch {
		return
	}
	*sc = scanner{edges: sc.edges[:0], moves: sc.moves[:0], pins: sc.pins[:0]}
	scanners.Put(sc)
}

// body scans the top-level object, whose keys come from names, then
// requires a graph and nothing but whitespace after the object.
func (sc *scanner) body(names []string) bool {
	hasGraph := false
	ok := sc.fields(names, func(key string) bool {
		switch key {
		case "graph":
			hasGraph = true
			return sc.graph()
		case "k":
			return sc.intValue(&sc.req.K)
		case "deadline_ms":
			return sc.int64Value(&sc.req.DeadlineMS)
		case "strategies":
			return sc.array(func() bool {
				name, ok := sc.str()
				if ok {
					sc.req.Strategies = append(sc.req.Strategies, string(name))
				}
				return ok
			})
		case "no_cache":
			return sc.boolean(&sc.req.NoCache)
		}
		op, ok := sc.str()
		sc.create = string(op) == "create"
		return ok
	})
	sc.space()
	return ok && hasGraph && sc.i == len(sc.b)
}

// graph scans the native graph object into the scanner's parts.
func (sc *scanner) graph() bool {
	return sc.fields(graphFields, func(key string) bool {
		switch key {
		case "vertices":
			return sc.intValue(&sc.vertices)
		case "edges":
			return sc.array(sc.edge)
		case "moves":
			return sc.array(sc.move)
		case "precolored":
			return sc.array(sc.pin)
		}
		return sc.intValue(&sc.graphK)
	})
}

// edge scans one [u,v] pair.
func (sc *scanner) edge() bool {
	var u, v int
	if !sc.eat('[') || !sc.intValue(&u) || !sc.eat(',') || !sc.intValue(&v) || !sc.eat(']') {
		return false
	}
	sc.edges = append(sc.edges, graph.V(u), graph.V(v))
	return true
}

// move scans one {"x","y","weight"} object; absent members are zero.
func (sc *scanner) move() bool {
	var x, y int
	var w int64
	ok := sc.fields(moveFields, func(key string) bool {
		switch key {
		case "x":
			return sc.intValue(&x)
		case "y":
			return sc.intValue(&y)
		}
		return sc.int64Value(&w)
	})
	sc.moves = append(sc.moves, graph.Affinity{X: graph.V(x), Y: graph.V(y), Weight: w})
	return ok
}

// pin scans one {"v","color"} object; absent members are zero.
func (sc *scanner) pin() bool {
	var v, color int
	ok := sc.fields(pinFields, func(key string) bool {
		if key == "v" {
			return sc.intValue(&v)
		}
		return sc.intValue(&color)
	})
	sc.pins = append(sc.pins, v, color)
	return ok
}

// fields scans an object whose keys all come from names, each at most
// once, handing each key to value, which must scan the key's value.
func (sc *scanner) fields(names []string, value func(key string) bool) bool {
	if !sc.eat('{') {
		return false
	}
	if sc.eat('}') {
		return true
	}
	seen := 0
	for {
		key, ok := sc.str()
		if !ok || !sc.eat(':') {
			return false
		}
		i := 0
		for i < len(names) && names[i] != string(key) {
			i++
		}
		if i == len(names) || seen&(1<<i) != 0 || !value(names[i]) {
			return false
		}
		seen |= 1 << i
		if sc.eat('}') {
			return true
		}
		if !sc.eat(',') {
			return false
		}
	}
}

// array scans [elem,...], calling elem to scan each element.
func (sc *scanner) array(elem func() bool) bool {
	if !sc.eat('[') {
		return false
	}
	if sc.eat(']') {
		return true
	}
	for {
		if !elem() {
			return false
		}
		if sc.eat(']') {
			return true
		}
		if !sc.eat(',') {
			return false
		}
	}
}

// space skips JSON whitespace.
func (sc *scanner) space() {
	for sc.i < len(sc.b) {
		switch sc.b[sc.i] {
		case ' ', '\t', '\n', '\r':
			sc.i++
		default:
			return
		}
	}
}

// eat consumes c after optional whitespace.
func (sc *scanner) eat(c byte) bool {
	sc.space()
	if sc.i < len(sc.b) && sc.b[sc.i] == c {
		sc.i++
		return true
	}
	return false
}

// str scans a string of printable ASCII without escapes and returns its
// bytes, which alias the body.
func (sc *scanner) str() ([]byte, bool) {
	if !sc.eat('"') {
		return nil, false
	}
	for j := sc.i; j < len(sc.b); j++ {
		switch c := sc.b[j]; {
		case c == '"':
			s := sc.b[sc.i:j]
			sc.i = j + 1
			return s, true
		case c < 0x20 || c == '\\' || c >= 0x80:
			return nil, false
		}
	}
	return nil, false
}

// int64Value scans an integer that fits int64, with no fraction,
// exponent or leading zero. A fraction or exponent is left unread, so
// the caller's next expected byte declines it.
func (sc *scanner) int64Value(dst *int64) bool {
	sc.space()
	neg := sc.i < len(sc.b) && sc.b[sc.i] == '-'
	if neg {
		sc.i++
	}
	start := sc.i
	var u uint64
	for sc.i < len(sc.b) && sc.b[sc.i]-'0' <= 9 {
		u = u*10 + uint64(sc.b[sc.i]-'0')
		sc.i++
	}
	// 19 digits cannot overflow a uint64; 20 cannot fit an int64.
	digits := sc.i - start
	if digits == 0 || digits > 19 || (digits > 1 && sc.b[start] == '0') {
		return false
	}
	switch {
	case neg && u <= 1<<63:
		*dst = -int64(u)
	case !neg && u < 1<<63:
		*dst = int64(u)
	default:
		return false
	}
	return true
}

// intValue scans an integer into an int, declining one that does not fit
// the platform's int.
func (sc *scanner) intValue(dst *int) bool {
	var v int64
	if !sc.int64Value(&v) || int64(int(v)) != v {
		return false
	}
	*dst = int(v)
	return true
}

// boolean scans true or false.
func (sc *scanner) boolean(dst *bool) bool {
	sc.space()
	switch rest := sc.b[sc.i:]; {
	case bytes.HasPrefix(rest, []byte("true")):
		*dst = true
		sc.i += 4
	case bytes.HasPrefix(rest, []byte("false")):
		*dst = false
		sc.i += 5
	default:
		return false
	}
	return true
}
