package cluster_test

// Pinned responses for the request bodies the native decoder must refuse
// (and a few it accepts): every one was captured from a single node and
// through the router before the one-pass decoder existed, and must stay
// byte-identical. A refused body is decoded by encoding/json exactly as
// before, so these bodies pin that the scanner declines where
// encoding/json does something a naive scanner would not.

import (
	"bytes"
	"net/http"
	"regexp"
	"testing"

	"regcoal/internal/cluster"
	"regcoal/internal/service"
)

var pinnedBodies = []struct {
	path, body string
	status     int
	want       string
}{
	// Keys encoding/json matches by case folding, and duplicates (last wins).
	{"/v1/coalesce", `{"Graph":{"vertices":3,"edges":[[0,1],[1,2]],"moves":[{"x":0,"y":2,"weight":5}],"k":2}}`, 200, `{"hash":"037fef6daa65619c67cb26900947fb9e185bcd1c6021704c8605f679eb0a0ea8","vertices":3,"edges":2,"moves":1,"k":2,"strategy":"aggressive","coalesced_moves":1,"coalesced_weight":5,"remaining_weight":0,"colorable":true,"deadline_hit":false,"classes":[[0,2],[1]],"coloring":[1,0,1]}`},
	{"/v1/coalesce", `{"graph":{"VERTICES":3,"edges":[[0,1],[1,2]],"moves":[{"x":0,"y":2}],"k":2}}`, 200, `{"hash":"3111aa5243040583ce170a0bd9e503153204e92924bd44f25f1186b4e1ca1293","vertices":3,"edges":2,"moves":1,"k":2,"strategy":"aggressive","coalesced_moves":1,"coalesced_weight":1,"remaining_weight":0,"colorable":true,"deadline_hit":false,"classes":[[0,2],[1]],"coloring":[1,0,1]}`},
	{"/v1/coalesce", `{"graph":{"vertices":3,"edges":[[0,1],[1,2]],"moves":[{"x":1,"y":2,"X":0}],"k":2}}`, 200, `{"hash":"3111aa5243040583ce170a0bd9e503153204e92924bd44f25f1186b4e1ca1293","vertices":3,"edges":2,"moves":1,"k":2,"strategy":"aggressive","coalesced_moves":1,"coalesced_weight":1,"remaining_weight":0,"colorable":true,"deadline_hit":false,"classes":[[0,2],[1]],"coloring":[1,0,1]}`},
	{"/v1/coalesce", `{"graph":{"vertices":3,"edges":[[0,1],[1,2]],"k":2,"k":3}}`, 200, `{"hash":"2c4ec252573a126d96bfdb2d2977b2e2ef7efb13d59ad265acbed59275b600ab","vertices":3,"edges":2,"moves":0,"k":3,"strategy":"aggressive","coalesced_moves":0,"coalesced_weight":0,"remaining_weight":0,"colorable":true,"deadline_hit":false,"classes":[[0],[1],[2]],"coloring":[0,1,0]}`},
	{"/v1/coalesce", `{"k":1,"graph":{"vertices":3,"edges":[[0,1],[1,2]]},"k":2}`, 200, `{"hash":"14ca6a1a80d184bc603184d5ad1cee0753afa089fabcf38d20f77d536b3c4af6","vertices":3,"edges":2,"moves":0,"k":2,"strategy":"aggressive","coalesced_moves":0,"coalesced_weight":0,"remaining_weight":0,"colorable":true,"deadline_hit":false,"classes":[[0],[1],[2]],"coloring":[0,1,0]}`},
	{"/v1/coalesce", `{"graph":{"vertices":2,"edges":[[0,1]],"k":2},"graph":{"vertices":3,"edges":[[0,1],[1,2]],"moves":[{"x":0,"y":2}],"k":2}}`, 200, `{"hash":"3111aa5243040583ce170a0bd9e503153204e92924bd44f25f1186b4e1ca1293","vertices":3,"edges":2,"moves":1,"k":2,"strategy":"aggressive","coalesced_moves":1,"coalesced_weight":1,"remaining_weight":0,"colorable":true,"deadline_hit":false,"classes":[[0,2],[1]],"coloring":[1,0,1]}`},
	// null anywhere.
	{"/v1/coalesce", `{"graph":null}`, 400, `{"error":"missing graph"}`},
	{"/v1/coalesce", `{"graph":{"vertices":3,"edges":null,"moves":[{"x":0,"y":2}],"k":2}}`, 200, `{"hash":"854b7f1f030f2e0cb7ce79c8396908e4301c2317e484b7fd16c33fd6abae4160","vertices":3,"edges":0,"moves":1,"k":2,"strategy":"aggressive","coalesced_moves":1,"coalesced_weight":1,"remaining_weight":0,"colorable":true,"deadline_hit":false,"classes":[[0,2],[1]],"coloring":[0,0,0]}`},
	{"/v1/coalesce", `{"graph":{"vertices":3,"edges":[[0,1],null],"k":2}}`, 400, `{"error":"graph: self-loop on vertex 0"}`},
	{"/v1/coalesce", `{"graph":{"vertices":3,"edges":[[0,null]],"k":2}}`, 400, `{"error":"graph: self-loop on vertex 0"}`},
	{"/v1/coalesce", `{"graph":{"vertices":3,"edges":[[0,1]],"k":null}}`, 400, `{"error":"no register count: set k in the request or the graph payload"}`},
	{"/v1/coalesce", `{"graph":{"vertices":3,"edges":[[0,1]],"k":2},"strategies":null,"deadline_ms":null,"no_cache":null,"k":null}`, 200, `{"hash":"73327f99f478145500f484c14a017ae9e9a05db6c001ef4f61e1d827194a98e6","vertices":3,"edges":1,"moves":0,"k":2,"strategy":"aggressive","coalesced_moves":0,"coalesced_weight":0,"remaining_weight":0,"colorable":true,"deadline_hit":false,"classes":[[0],[1],[2]],"coloring":[1,0,0]}`},
	{"/v1/coalesce", `{"graph":{"vertices":3,"edges":[[0,1]],"k":2},"strategies":[null]}`, 400, `{"error":"unknown strategy \"\" (have [aggressive briggs briggs+george brute brute-sets chordal-inc ext-george george optimistic vegdahl] and \"exact\")"}`},
	// Numbers that are not plain int64s.
	{"/v1/coalesce", `{"graph":{"vertices":3.0,"edges":[[0,1]],"k":2}}`, 400, `{"error":"decoding request: json: cannot unmarshal number 3.0 into Go struct field GraphSpec.graph.vertices of type int"}`},
	{"/v1/coalesce", `{"graph":{"vertices":3,"edges":[[0,1e0]],"k":2}}`, 400, `{"error":"decoding request: json: cannot unmarshal number 1e0 into Go struct field GraphSpec.graph.edges of type int"}`},
	{"/v1/coalesce", `{"graph":{"vertices":3,"edges":[[0,1]],"k":2E0}}`, 400, `{"error":"decoding request: json: cannot unmarshal number 2E0 into Go struct field GraphSpec.graph.k of type int"}`},
	{"/v1/coalesce", `{"graph":{"vertices":9223372036854775808,"k":2}}`, 400, `{"error":"decoding request: json: cannot unmarshal number 9223372036854775808 into Go struct field GraphSpec.graph.vertices of type int"}`},
	{"/v1/coalesce", `{"graph":{"vertices":3,"edges":[[0,-9223372036854775809]],"k":2}}`, 400, `{"error":"decoding request: json: cannot unmarshal number -9223372036854775809 into Go struct field GraphSpec.graph.edges of type int"}`},
	{"/v1/coalesce", `{"graph":{"vertices":3,"moves":[{"x":0,"y":2,"weight":9223372036854775808}],"k":2}}`, 400, `{"error":"decoding request: json: cannot unmarshal number 9223372036854775808 into Go struct field Move.graph.moves.weight of type int64"}`},
	{"/v1/coalesce", `{"graph":{"vertices":03,"k":2}}`, 400, `{"error":"decoding request: invalid character '3' after object key:value pair"}`},
	{"/v1/coalesce", `{"graph":{"vertices":3,"k":2},"deadline_ms":1.5}`, 400, `{"error":"decoding request: json: cannot unmarshal number 1.5 into Go struct field Request.deadline_ms of type int64"}`},
	// Strings with escapes or non-ASCII bytes.
	{"/v1/coalesce", `{"graph":{"vertices":3,"edges":[[0,1]],"k":2},"strategies":["aggressive"]}`, 200, `{"hash":"73327f99f478145500f484c14a017ae9e9a05db6c001ef4f61e1d827194a98e6","vertices":3,"edges":1,"moves":0,"k":2,"strategy":"aggressive","coalesced_moves":0,"coalesced_weight":0,"remaining_weight":0,"colorable":true,"deadline_hit":false,"classes":[[0],[1],[2]],"coloring":[1,0,0]}`},
	{"/v1/coalesce", `{"graph":{"vertices":3,"edges":[[0,1]],"k":2},"strategies":["agressivé"]}`, 400, `{"error":"unknown strategy \"agressivé\" (have [aggressive briggs briggs+george brute brute-sets chordal-inc ext-george george optimistic vegdahl] and \"exact\")"}`},
	{"/v1/coalesce", `{"graph":{"vertices":3,"edges":[[0,1]],"k":2}}`, 200, `{"hash":"73327f99f478145500f484c14a017ae9e9a05db6c001ef4f61e1d827194a98e6","vertices":3,"edges":1,"moves":0,"k":2,"strategy":"aggressive","coalesced_moves":0,"coalesced_weight":0,"remaining_weight":0,"colorable":true,"deadline_hit":false,"classes":[[0],[1],[2]],"coloring":[1,0,0]}`},
	{"/v1/coalesce", `{"graph":{"vertices":3,"edges":[[0,1]],"k":2},"strategies":["aggr\u0065ssive"]}`, 200, `{"hash":"73327f99f478145500f484c14a017ae9e9a05db6c001ef4f61e1d827194a98e6","vertices":3,"edges":1,"moves":0,"k":2,"strategy":"aggressive","coalesced_moves":0,"coalesced_weight":0,"remaining_weight":0,"colorable":true,"deadline_hit":false,"classes":[[0],[1],[2]],"coloring":[1,0,0]}`},
	{"/v1/coalesce", `{"gr\u0061ph":{"vertices":3,"edges":[[0,1]],"k":2}}`, 200, `{"hash":"73327f99f478145500f484c14a017ae9e9a05db6c001ef4f61e1d827194a98e6","vertices":3,"edges":1,"moves":0,"k":2,"strategy":"aggressive","coalesced_moves":0,"coalesced_weight":0,"remaining_weight":0,"colorable":true,"deadline_hit":false,"classes":[[0],[1],[2]],"coloring":[1,0,0]}`},
	{"/v1/coalesce", `{"graph":{"vertices":3,"edges":[[0,1]],"k":2},"strategies":["aggressive\n"]}`, 400, `{"error":"unknown strategy \"aggressive\\n\" (have [aggressive briggs briggs+george brute brute-sets chordal-inc ext-george george optimistic vegdahl] and \"exact\")"}`},
	// Edge pairs without exactly two elements.
	{"/v1/coalesce", `{"graph":{"vertices":3,"edges":[[0,1,2]],"k":2}}`, 200, `{"hash":"73327f99f478145500f484c14a017ae9e9a05db6c001ef4f61e1d827194a98e6","vertices":3,"edges":1,"moves":0,"k":2,"strategy":"aggressive","coalesced_moves":0,"coalesced_weight":0,"remaining_weight":0,"colorable":true,"deadline_hit":false,"classes":[[0],[1],[2]],"coloring":[1,0,0]}`},
	{"/v1/coalesce", `{"graph":{"vertices":3,"edges":[[1]],"k":2}}`, 200, `{"hash":"73327f99f478145500f484c14a017ae9e9a05db6c001ef4f61e1d827194a98e6","vertices":3,"edges":1,"moves":0,"k":2,"strategy":"aggressive","coalesced_moves":0,"coalesced_weight":0,"remaining_weight":0,"colorable":true,"deadline_hit":false,"classes":[[0],[1],[2]],"coloring":[1,0,0]}`},
	{"/v1/coalesce", `{"graph":{"vertices":3,"edges":[[]],"k":2}}`, 400, `{"error":"graph: self-loop on vertex 0"}`},
	// names, text, dimacs and unknown keys.
	{"/v1/coalesce", `{"graph":{"names":["a","b","c"],"edges":[[0,1],[1,2]],"moves":[{"x":0,"y":2,"weight":3}],"k":2}}`, 200, `{"hash":"daf12457d46fae5b552c8b4d2b8067fa897ad492dc9b88e9478e5f22e274a00f","vertices":3,"edges":2,"moves":1,"k":2,"strategy":"aggressive","coalesced_moves":1,"coalesced_weight":3,"remaining_weight":0,"colorable":true,"deadline_hit":false,"classes":[[0,2],[1]],"coloring":[1,0,1]}`},
	{"/v1/coalesce", `{"graph":{"vertices":1,"names":["a","b"],"edges":[[0,1]],"k":2}}`, 200, `{"hash":"f863456aa0f09817996e23f354eae55069ba1653ddcf1afb007f8bd15d8519fa","vertices":2,"edges":1,"moves":0,"k":2,"strategy":"aggressive","coalesced_moves":0,"coalesced_weight":0,"remaining_weight":0,"colorable":true,"deadline_hit":false,"classes":[[0],[1]],"coloring":[1,0]}`},
	{"/v1/coalesce", `{"graph":{"text":"k 2\nnode a\nnode b\nedge a b\n"}}`, 200, `{"hash":"f863456aa0f09817996e23f354eae55069ba1653ddcf1afb007f8bd15d8519fa","vertices":2,"edges":1,"moves":0,"k":2,"strategy":"aggressive","coalesced_moves":0,"coalesced_weight":0,"remaining_weight":0,"colorable":true,"deadline_hit":false,"classes":[[0],[1]],"coloring":[1,0]}`},
	{"/v1/coalesce", `{"graph":{"dimacs":"p edge 2 1\nc regcoal k 2\ne 1 2\n"}}`, 200, `{"hash":"f863456aa0f09817996e23f354eae55069ba1653ddcf1afb007f8bd15d8519fa","vertices":2,"edges":1,"moves":0,"k":2,"strategy":"aggressive","coalesced_moves":0,"coalesced_weight":0,"remaining_weight":0,"colorable":true,"deadline_hit":false,"classes":[[0],[1]],"coloring":[1,0]}`},
	{"/v1/coalesce", `{"graph":{"vertices":2,"k":2,"text":"k 2\nnode a\n"}}`, 400, `{"error":"graph: use exactly one of native fields, text, dimacs"}`},
	{"/v1/coalesce", `{"graph":{"vertices":2,"k":2},"bogus":1}`, 400, `{"error":"decoding request: json: unknown field \"bogus\""}`},
	{"/v1/coalesce", `{"graph":{"vertices":2,"k":2,"bogus":1}}`, 400, `{"error":"decoding request: json: unknown field \"bogus\""}`},
	{"/v1/coalesce", `{"graph":{"vertices":2,"moves":[{"x":0,"y":1,"w":2}],"k":2}}`, 400, `{"error":"decoding request: json: unknown field \"w\""}`},
	{"/v1/coalesce", `{"graph":{"vertices":2,"precolored":[{"v":0,"colour":1}],"k":2}}`, 400, `{"error":"decoding request: json: unknown field \"colour\""}`},
	// Non-whitespace after the top-level object.
	{"/v1/coalesce", `{"graph":{"vertices":3,"edges":[[0,1],[1,2]],"moves":[{"x":0,"y":2}],"k":2}} trailing`, 200, `{"hash":"3111aa5243040583ce170a0bd9e503153204e92924bd44f25f1186b4e1ca1293","vertices":3,"edges":2,"moves":1,"k":2,"strategy":"aggressive","coalesced_moves":1,"coalesced_weight":1,"remaining_weight":0,"colorable":true,"deadline_hit":false,"classes":[[0,2],[1]],"coloring":[1,0,1]}`},
	{"/v1/coalesce", `{"graph":{"vertices":3,"edges":[[0,1],[1,2]],"moves":[{"x":0,"y":2}],"k":2}}{}`, 200, `{"hash":"3111aa5243040583ce170a0bd9e503153204e92924bd44f25f1186b4e1ca1293","vertices":3,"edges":2,"moves":1,"k":2,"strategy":"aggressive","coalesced_moves":1,"coalesced_weight":1,"remaining_weight":0,"colorable":true,"deadline_hit":false,"classes":[[0,2],[1]],"coloring":[1,0,1]}`},
	{"/v1/coalesce", "{\"graph\":{\"vertices\":3,\"edges\":[[0,1],[1,2]],\"k\":2}} \t\r\n", 200, `{"hash":"14ca6a1a80d184bc603184d5ad1cee0753afa089fabcf38d20f77d536b3c4af6","vertices":3,"edges":2,"moves":0,"k":2,"strategy":"aggressive","coalesced_moves":0,"coalesced_weight":0,"remaining_weight":0,"colorable":true,"deadline_hit":false,"classes":[[0],[1],[2]],"coloring":[0,1,0]}`},
	// Wrong types and malformed JSON.
	{"/v1/coalesce", `{"graph":{"vertices":3,"k":2},"no_cache":1}`, 400, `{"error":"decoding request: json: cannot unmarshal number into Go struct field Request.no_cache of type bool"}`},
	{"/v1/coalesce", `{"graph":{"vertices":"3","k":2}}`, 400, `{"error":"decoding request: json: cannot unmarshal string into Go struct field GraphSpec.graph.vertices of type int"}`},
	{"/v1/coalesce", `{"graph":{"vertices":3,"edges":{"0":1},"k":2}}`, 400, `{"error":"decoding request: json: cannot unmarshal object into Go struct field GraphSpec.graph.edges of type [][2]int"}`},
	{"/v1/coalesce", `{"graph":[],"k":2}`, 400, `{"error":"decoding request: json: cannot unmarshal array into Go struct field Request.graph of type service.GraphSpec"}`},
	{"/v1/coalesce", `{"graph":{"vertices":3,"edges":[[0,1],],"k":2}}`, 400, `{"error":"decoding request: invalid character ']' looking for beginning of value"}`},
	{"/v1/coalesce", `{"graph":{"vertices":3,"k":2}`, 400, `{"error":"decoding request: unexpected EOF"}`},
	{"/v1/coalesce", `[]`, 400, `{"error":"decoding request: json: cannot unmarshal array into Go value of type service.Request"}`},
	{"/v1/coalesce", ``, 400, `{"error":"decoding request: EOF"}`},
	// Native validation errors.
	{"/v1/coalesce", `{"graph":{"vertices":2,"edges":[[0,5]],"k":2}}`, 400, `{"error":"graph: vertex 5 out of range [0,2)"}`},
	{"/v1/allocate", `{"graph":{"vertices":2,"edges":[[-1,0]],"k":2}}`, 400, `{"error":"graph: vertex -1 out of range [0,2)"}`},
	{"/v1/spill", `{"graph":{"vertices":2,"edges":[[1,1]],"k":2}}`, 400, `{"error":"graph: self-loop on vertex 1"}`},
	{"/v1/coalesce", `{"graph":{"vertices":2,"moves":[{"x":0,"y":2}],"k":2}}`, 400, `{"error":"graph: vertex 2 out of range [0,2)"}`},
	{"/v1/coalesce", `{"graph":{"vertices":2,"moves":[{"x":0,"y":1,"weight":-3}],"k":2}}`, 400, `{"error":"graph: negative move weight -3"}`},
	{"/v1/coalesce", `{"graph":{"vertices":2,"precolored":[{"v":2,"color":0}],"k":2}}`, 400, `{"error":"graph: vertex 2 out of range [0,2)"}`},
	{"/v1/coalesce", `{"graph":{"vertices":2,"precolored":[{"v":0,"color":-1}],"k":2}}`, 400, `{"error":"graph: negative precolor -1"}`},
	{"/v1/coalesce", `{"graph":{"vertices":2,"edges":[[0,1],[1,1],[0,7]],"moves":[{"x":0,"y":9}],"k":2}}`, 400, `{"error":"graph: self-loop on vertex 1"}`},
	{"/v1/coalesce", `{"graph":{}}`, 400, `{"error":"graph: empty native graph (set vertices or names)"}`},
	{"/v1/coalesce", `{"graph":{"vertices":-5,"k":2}}`, 400, `{"error":"graph: empty native graph (set vertices or names)"}`},
	{"/v1/coalesce", `{"graph":{"k":2}}`, 400, `{"error":"graph: empty native graph (set vertices or names)"}`},
	{"/v1/coalesce", `{"graph":{"edges":[],"moves":[],"precolored":[]},"k":2}`, 400, `{"error":"graph: empty native graph (set vertices or names)"}`},
	{"/v1/coalesce", `{"graph":{"vertices":2,"edges":[[0,1]]}}`, 400, `{"error":"no register count: set k in the request or the graph payload"}`},
	{"/v1/coalesce", `{"graph":{"vertices":2,"edges":[[0,1]],"k":-1},"k":0}`, 400, `{"error":"no register count: set k in the request or the graph payload"}`},
	{"/v1/coalesce", `{"graph":{"vertices":2,"edges":[[0,1]],"k":2},"strategies":["nope"]}`, 400, `{"error":"unknown strategy \"nope\" (have [aggressive briggs briggs+george brute brute-sets chordal-inc ext-george george optimistic vegdahl] and \"exact\")"}`},
	{"/v1/allocate", `{"graph":{"vertices":2,"edges":[[0,1]],"k":2},"strategies":["nope"]}`, 400, `{"error":"unknown allocator \"nope\" (have [irc briggs+george optimistic none spill+briggs+george spill+optimistic])"}`},
	{"/v1/coalesce", `{}`, 400, `{"error":"missing graph"}`},
	{"/v1/coalesce", `{"k":2}`, 400, `{"error":"missing graph"}`},
	// Bodies the scanner accepts, for contrast.
	{"/v1/coalesce", `{"graph":{"vertices":3,"edges":[[0,1],[1,2],[2,1]],"moves":[{"x":0,"y":2,"weight":0},{"y":1,"x":1}],"precolored":[{"v":0,"color":1},{"color":0,"v":0}],"k":2},"k":0,"deadline_ms":-5,"strategies":[],"no_cache":false}`, 200, `{"hash":"4f85e9b711da8cdc2663e9415dd0ece89db802ef879873d652554fd5e3f604bb","vertices":3,"edges":2,"moves":2,"k":2,"strategy":"aggressive","coalesced_moves":2,"coalesced_weight":2,"remaining_weight":0,"colorable":true,"deadline_hit":false,"classes":[[0,2],[1]],"coloring":[0,1,0]}`},
	{"/v1/allocate", ` { "graph" : { "k" : 2 , "vertices" : 3 , "edges" : [ [ 0 , 1 ] , [ 1 , 2 ] ] } } `, 200, `{"hash":"14ca6a1a80d184bc603184d5ad1cee0753afa089fabcf38d20f77d536b3c4af6","vertices":3,"edges":2,"moves":0,"k":2,"strategy":"irc","coloring":[0,1,0],"spills":0,"coalesced_weight":0,"remaining_weight":0,"deadline_hit":false}`},
	{"/v1/spill", `{"graph":{"vertices":4,"edges":[[0,1],[1,2],[2,0],[2,3]],"k":2},"no_cache":true}`, 200, `{"hash":"22e00d9ade62a1c5865b78f03574530daa58fbb0aa76c4abb486ec2147cb1e4a","vertices":4,"edges":4,"moves":0,"k":2,"strategy":"exact","spilled":[0],"spills":1,"spill_cost":1,"optimal":true,"coloring":[-1,0,1,0],"deadline_hit":false}`},
	// Delta creates.
	{"/v1/coalesce/delta", `{"op":"create","graph":{"vertices":2,"edges":[[0,0]],"k":2}}`, 400, `{"error":"parsing graph: graph: self-loop on vertex 0"}`},
	{"/v1/coalesce/delta", `{"op":"create","graph":{"vertices":2,"edges":[[0,3]],"k":2}}`, 400, `{"error":"parsing graph: graph: vertex 3 out of range [0,2)"}`},
	{"/v1/coalesce/delta", `{"op":"create","graph":{"vertices":3.0,"k":2}}`, 400, `{"error":"decoding delta request: json: cannot unmarshal number 3.0 into Go struct field GraphSpec.graph.vertices of type int"}`},
	{"/v1/coalesce/delta", `{"op":"create","graph":{}}`, 400, `{"error":"parsing graph: graph: empty native graph (set vertices or names)"}`},
	{"/v1/coalesce/delta", `{"op":"create","graph":null}`, 400, `{"error":"create requires a graph"}`},
	{"/v1/coalesce/delta", `{"op":"create","graph":{"vertices":2,"k":2},"bogus":1}`, 400, `{"error":"decoding delta request: json: unknown field \"bogus\""}`},
	{"/v1/coalesce/delta", `{"op":"create","graph":{"vertices":2,"moves":[{"x":0,"y":1,"weight":-1}],"k":2}}`, 400, `{"error":"parsing graph: graph: negative move weight -1"}`},
	{"/v1/coalesce/delta", `{"op":"create","graph":{"vertices":2,"edges":[[0,1]],"k":2}} trailing`, 200, `{"session_id":"s-*","base_hash":"f863456aa0f09817996e23f354eae55069ba1653ddcf1afb007f8bd15d8519fa","version":0,"path":"fresh","result":{"k":2,"vertices":2,"next_vertex":2,"colorable":true,"coalesced_moves":0,"coalesced_weight":0,"remaining_moves":0,"remaining_weight":0,"classes":[[0],[1]],"coloring":[1,0]}}`},
	{"/v1/coalesce/delta", `{"op":"create","graph":{"vertices":2,"edges":[[0,1]],"k":2},"session_id":"s-x","base_hash":"abc"}`, 200, `{"session_id":"s-*","base_hash":"f863456aa0f09817996e23f354eae55069ba1653ddcf1afb007f8bd15d8519fa","version":0,"path":"fresh","result":{"k":2,"vertices":2,"next_vertex":2,"colorable":true,"coalesced_moves":0,"coalesced_weight":0,"remaining_moves":0,"remaining_weight":0,"classes":[[0],[1]],"coloring":[1,0]}}`},
	{"/v1/coalesce/delta", `{"op":"cre\u0061te","graph":{"vertices":2,"edges":[[1,1]],"k":2}}`, 400, `{"error":"parsing graph: graph: self-loop on vertex 1"}`},
	{"/v1/coalesce/delta", `{"op":"Create","graph":{"vertices":2,"edges":[[1,1]],"k":2}}`, 400, `{"error":"unknown op \"Create\" (want create, delta, close)"}`},
	{"/v1/coalesce/delta", `{"Op":"create","graph":{"vertices":2,"edges":[[1,1]],"k":2}}`, 400, `{"error":"parsing graph: graph: self-loop on vertex 1"}`},
	{"/v1/coalesce/delta", `{"op":"create","graph":{"vertices":2,"edges":[[1,1]],"k":2},"op":"delta"}`, 400, `{"error":"delta requires a session_id"}`},
	{"/v1/coalesce/delta", `{"op":"create","k":null,"graph":{"vertices":2,"edges":[[1,1]],"k":2}}`, 400, `{"error":"parsing graph: graph: self-loop on vertex 1"}`},
}

// sessionIDs masks the random session ID of a create response.
var sessionIDs = regexp.MustCompile(`"session_id":"s-[0-9a-f]+"`)

func TestPinnedBodiesSingleNodeAndRouter(t *testing.T) {
	_, single := startSingle(t, service.Config{})
	c := startCluster(t, 3, cluster.InProcessOptions{})
	for _, url := range []string{single.URL, c.RouterURL} {
		for _, tc := range pinnedBodies {
			status, _, got := post(t, url+tc.path, []byte(tc.body))
			got = sessionIDs.ReplaceAll(got, []byte(`"session_id":"s-*"`))
			if status != tc.status || string(got) != tc.want {
				t.Errorf("%s%s %s:\n got (%d) %s\nwant (%d) %s", url, tc.path, tc.body, status, got, tc.status, tc.want)
			}
		}
	}
}

// A body declaring a billion vertices answers the cap's 400 through the
// router as well: the router's routing decode refuses it before building
// anything, and the fallback shard's worker words the error.
func TestOversizeGraphThroughRouter(t *testing.T) {
	c := startCluster(t, 3, cluster.InProcessOptions{})
	for _, tc := range []struct{ path, body, want string }{
		{"/v1/coalesce", `{"graph":{"vertices":1000000000,"k":2}}`,
			`{"error":"graph has 1000000000 vertices, limit 200000"}`},
		{"/v1/coalesce/delta", `{"op":"create","graph":{"vertices":1000000000,"k":2}}`,
			`{"error":"graph carries 1000000000 vertices, limit 200000"}`},
	} {
		status, _, got := post(t, c.RouterURL+tc.path, []byte(tc.body))
		if status != http.StatusBadRequest || string(got) != tc.want {
			t.Errorf("%s %s: (%d) %s, want (400) %s", tc.path, tc.body, status, got, tc.want)
		}
	}
	status, _, got := post(t, c.RouterURL+"/v1/batch", []byte(`{"items":[{"graph":{"vertices":1000000000,"k":2}}]}`))
	if want := `{"results":[{"error":"graph has 1000000000 vertices, limit 200000"}]}`; status != http.StatusOK || string(got) != want {
		t.Errorf("batch: (%d) %s, want (200) %s", status, got, want)
	}
}

// A graph whose canonical form would exceed the header bound (13 000
// vertices: a ~67 KB perm) is forwarded without the form, so no worker
// answers 431, and the answer is byte-identical to a single node's.
func TestLargeGraphForwardedWithoutForm(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 13 000-vertex graph three times")
	}
	_, single := startSingle(t, service.Config{})
	c := startCluster(t, 2, cluster.InProcessOptions{})
	body := []byte(`{"graph":{"vertices":13000,"edges":[[0,1],[1,2]],"moves":[{"x":0,"y":2,"weight":3}],"k":2},"strategies":["aggressive"]}`)
	if key, form := service.RouteKey(body, 0); key == "" || form != "" {
		t.Fatalf("routing key %q, a %d-byte form; want a key and no form", key, len(form))
	}
	wantStatus, _, want := post(t, single.URL+"/v1/coalesce", body)
	gotStatus, _, got := post(t, c.RouterURL+"/v1/coalesce", body)
	if wantStatus != http.StatusOK || gotStatus != wantStatus || !bytes.Equal(got, want) {
		t.Fatalf("router (%d) %.200s, single node (%d) %.200s", gotStatus, got, wantStatus, want)
	}
	for _, w := range c.Workers {
		if st := w.Service.Registry().Snapshot(); st.Int("canon_forwarded")+st.Int("canon_forward_rejected") != 0 {
			t.Fatalf("worker %s saw a form for a graph over the bound", w.URL)
		}
	}
}

// Text, DIMACS, names and trailing-bytes bodies route by the hash the
// worker computes, not to the fallback shard, and carry that hash's
// form: each answers byte-identically to a single node, and each form
// is verified and used, none refused.
func TestDeclinedBodiesRouteWithForms(t *testing.T) {
	_, single := startSingle(t, service.Config{})
	c := startCluster(t, 3, cluster.InProcessOptions{})
	bodies := []string{
		`{"graph":{"text":"k 2\nnode a\nnode b\nnode c\nedge a b\nedge b c\nmove a c 3\n"}}`,
		`{"graph":{"dimacs":"p edge 3 2\nc regcoal k 2\ne 1 2\ne 2 3\n"}}`,
		`{"graph":{"names":["x","y","z","w"],"edges":[[0,1],[1,2],[2,3]],"moves":[{"x":0,"y":3}],"k":2}}`,
		`{"graph":{"vertices":4,"edges":[[0,1],[1,2],[2,0]],"moves":[{"x":2,"y":3,"weight":2}],"k":3}} trailing`,
	}
	counters := func() (forwarded, rejected int64) {
		for _, w := range c.Workers {
			st := w.Service.Registry().Snapshot()
			forwarded += st.Int("canon_forwarded")
			rejected += st.Int("canon_forward_rejected")
		}
		return forwarded, rejected
	}
	fwd0, rej0 := counters()
	fallback0 := c.Router.Stats().Int("router_fallback")
	for _, body := range bodies {
		wantStatus, _, want := post(t, single.URL+"/v1/coalesce", []byte(body))
		gotStatus, _, got := post(t, c.RouterURL+"/v1/coalesce", []byte(body))
		if wantStatus != http.StatusOK || gotStatus != wantStatus || !bytes.Equal(got, want) {
			t.Errorf("%s: router (%d) %s, single node (%d) %s", body, gotStatus, got, wantStatus, want)
		}
	}
	fwd, rej := counters()
	if fwd-fwd0 != int64(len(bodies)) || rej != rej0 {
		t.Errorf("workers used %d forwarded forms and refused %d; want %d and 0", fwd-fwd0, rej-rej0, len(bodies))
	}
	if n := c.Router.Stats().Int("router_fallback") - fallback0; n != 0 {
		t.Errorf("%d bodies went to the fallback shard", n)
	}
}
