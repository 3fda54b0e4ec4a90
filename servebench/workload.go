package main

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"

	"regcoal/internal/corpus"
	"regcoal/internal/graph"
	"regcoal/internal/service"
	"regcoal/internal/service/loadgen"
	"regcoal/internal/session"
)

// The instance pool and the edit scripts are fixed (corpusSeed), the way a
// dataset is fixed; -seed draws the relabeling of every graph (and of the
// scripts with it) and the request order. Drawing the pool itself from
// -seed made the 96-graph hot mix differ by ~6% in canonicalization cost
// and the cold mix by 20-30% in solve cost from one seed to the next,
// which would swamp the regression bounds with input variance.
const corpusSeed = 2007

// families are the corpus families every workload draws from: chordal and
// interval (the polynomial cases), dense and sparse random graphs, and
// SSA programs below and above register pressure.
var families = []string{"chordal", "interval", "er-dense", "er-sparse", "ssa", "ssa-pressure"}

// Per-family corpus index ranges, disjoint so no warm-up or cold instance
// is ever a hot one.
const (
	hotIndex      = 0   // hot: 16 per family
	editIndex     = 16  // edit bases: 40 per family, then the warm-up bases
	coldWarmIndex = 64  // cold warm-up: 11 per family
	coldIndex     = 128 // cold pool
)

const (
	clients = 2 // closed-loop clients: one per core of the reference box

	hotPerFamily = 16
	relabelings  = 4
	hotRounds    = 16 // seeded permutations of the hot bodies, cycled

	coldWarmup    = 64
	coldPerSecond = 600 // cold pool size per measured second: ~2x the ~320 req/s measured
	coldBlock     = 96  // the seed shuffles the cold order within blocks
	coldScored    = 40 * coldBlock

	editBases     = 240
	editPlans     = 2 * editBases
	editWarmup    = 4 * clients
	editBatches   = 32
	editBatchSize = 4
)

// workloadInfo names a workload and its topology.
type workloadInfo struct {
	name    string
	cluster bool
	// rate and keep size what the clients record before timing starts:
	// requests per second, about twice the rate measured on the 2-core box,
	// and response bytes kept per request for validation, about twice the
	// mean (every session response and every cold answer are kept; the hot
	// workloads keep only the first answer to each of their 384 bodies).
	rate float64
	keep int
}

var workloads = []workloadInfo{
	{"hot-cluster", true, 6000, 0},
	{"hot-single", false, 12000, 0},
	{"cold-cluster", true, coldPerSecond, 768},
	{"edit-cluster", true, 2000, 768},
}

func lookupWorkload(name string) (workloadInfo, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadInfo{}, fmt.Errorf("unknown workload %q (have hot-cluster, hot-single, cold-cluster, edit-cluster)", name)
}

// instRef names one relabeled corpus instance; file regenerates it, so a
// run keeps bodies, not graphs.
type instRef struct {
	family   string
	index    int
	permSeed int64
}

func (r instRef) file() (*graph.File, error) {
	f, err := r.original()
	if err != nil || r.permSeed == 0 {
		return f, err
	}
	return relabel(f, r.perm(f.G.N())), nil
}

// original is the corpus instance before relabeling.
func (r instRef) original() (*graph.File, error) {
	fam, ok := corpus.Lookup(r.family)
	if !ok {
		return nil, fmt.Errorf("unknown family %q", r.family)
	}
	inst, err := fam.Generate(corpus.Params{Seed: corpusSeed}, r.index)
	if err != nil {
		return nil, err
	}
	return inst.File, nil
}

// perm is the relabeling of an n-vertex instance: perm[old] = new.
func (r instRef) perm(n int) []int { return rand.New(rand.NewSource(r.permSeed)).Perm(n) }

// relabel renumbers f's vertices by perm (perm[old] = new).
func relabel(f *graph.File, perm []int) *graph.File {
	g := f.G
	h := graph.New(g.N())
	for _, e := range g.Edges() {
		h.AddEdge(graph.V(perm[e[0]]), graph.V(perm[e[1]]))
	}
	for v := 0; v < g.N(); v++ {
		if c, ok := g.Precolored(graph.V(v)); ok {
			h.SetPrecolored(graph.V(perm[v]), c)
		}
	}
	for _, a := range g.Affinities() {
		h.AddAffinity(graph.V(perm[a.X]), graph.V(perm[a.Y]), a.Weight)
	}
	h.NormalizeAffinities()
	return &graph.File{G: h, K: f.K}
}

// solveInput is one distinct /v1/{coalesce,allocate,spill} body.
type solveInput struct {
	kind service.Kind
	ref  instRef
	body []byte
}

func (in *solveInput) path() string { return "/v1/" + in.kind.String() }

// kindOf gives the 3:1:1 coalesce:allocate:spill mix.
func kindOf(i int) service.Kind {
	switch i % 5 {
	case 3:
		return service.KindAllocate
	case 4:
		return service.KindSpill
	}
	return service.KindCoalesce
}

// sessionPlan is one edit session: a base graph and its edit script,
// sent as create, editBatches batches of editBatchSize deltas, close.
type sessionPlan struct {
	base    *graph.File
	create  []byte
	script  []session.Delta
	batches [][]byte // JSON array of each batch's deltas
}

// inputs are everything one workload run sends. Solve workloads use
// prime/warm/inputs/stream; edit-cluster uses plans/warmPlans.
type inputs struct {
	prime  []solveInput // setup: computed once to fill the cache
	warm   []solveInput // setup: sent once before timing
	inputs []solveInput // the distinct timed bodies
	stream []int32      // timed order: indices into inputs
	cycle  bool         // hot streams repeat; a cold stream ends

	// scored leading inputs (solve workloads: input indices; edit-cluster:
	// session numbers) are the answers quality is measured on. Every run
	// serves them all even at half the measured rate, so a faster commit serving
	// more requests does not change what the quality metric averages.
	scored int

	plans     []*sessionPlan
	warmPlans []*sessionPlan
}

// mix derives a child seed from the run seed and a path of integers.
func mix(seed int64, path ...int) int64 {
	h := fnv.New64a()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(seed))
	h.Write(buf[:])
	for _, p := range path {
		binary.LittleEndian.PutUint64(buf[:], uint64(p))
		h.Write(buf[:])
	}
	if s := int64(h.Sum64()); s != 0 {
		return s
	}
	return 1
}

// Salts separating the seed streams of the different input kinds.
const (
	saltHot = iota + 1
	saltHotOrder
	saltColdWarm
	saltCold
	saltColdOrder
	saltEditBase
	saltEditScript
)

func makeSolveInput(kind service.Kind, ref instRef) (solveInput, error) {
	f, err := ref.file()
	if err != nil {
		return solveInput{}, err
	}
	jobs, err := loadgen.JobsFromInstances([]*corpus.Instance{{Family: ref.family, Name: ref.family, File: f}}, loadgen.JobOptions{})
	if err != nil {
		return solveInput{}, err
	}
	return solveInput{kind: kind, ref: ref, body: jobs[0].Body}, nil
}

// buildInputs generates a workload's inputs from the seed. coldPool sizes
// the cold stream.
func buildInputs(w workloadInfo, seed int64, coldPool int) (*inputs, error) {
	switch w.name {
	case "hot-cluster", "hot-single":
		return hotInputs(seed)
	case "cold-cluster":
		return coldInputs(seed, coldPool)
	case "edit-cluster":
		return editInputs(seed)
	}
	return nil, fmt.Errorf("no inputs for workload %q", w.name)
}

// hotInputs: 96 base graphs, each sent under 4 seeded relabelings. The
// base graphs themselves (original numbering) are the priming set, so
// every timed body is a relabeled duplicate of a cached key.
func hotInputs(seed int64) (*inputs, error) {
	in := &inputs{cycle: true}
	b := 0
	for _, fam := range families {
		for i := 0; i < hotPerFamily; i++ {
			kind := kindOf(b)
			p, err := makeSolveInput(kind, instRef{family: fam, index: hotIndex + i})
			if err != nil {
				return nil, err
			}
			in.prime = append(in.prime, p)
			for r := 0; r < relabelings; r++ {
				s, err := makeSolveInput(kind, instRef{family: fam, index: hotIndex + i, permSeed: mix(seed, saltHot, b, r)})
				if err != nil {
					return nil, err
				}
				in.inputs = append(in.inputs, s)
			}
			b++
		}
	}
	in.warm, in.scored = in.inputs, len(in.inputs)
	rng := rand.New(rand.NewSource(mix(seed, saltHotOrder)))
	for r := 0; r < hotRounds; r++ {
		for _, i := range rng.Perm(len(in.inputs)) {
			in.stream = append(in.stream, int32(i))
		}
	}
	return in, nil
}

// coldInputs: pool unique instances, never repeated, in a fixed family
// and kind interleave that the seed shuffles only within blocks. A
// time-boxed run thus serves the same instance set on every seed, while
// the bodies (relabelings) and order differ.
func coldInputs(seed int64, pool int) (*inputs, error) {
	in := &inputs{scored: min(pool, coldScored)}
	for j := 0; j < coldWarmup; j++ {
		ref := instRef{family: families[j%len(families)], index: coldWarmIndex + j/len(families), permSeed: mix(seed, saltColdWarm, j)}
		s, err := makeSolveInput(kindOf(j), ref)
		if err != nil {
			return nil, err
		}
		in.warm = append(in.warm, s)
	}
	for j := 0; j < pool; j++ {
		ref := instRef{family: families[j%len(families)], index: coldIndex + j/len(families), permSeed: mix(seed, saltCold, j)}
		s, err := makeSolveInput(kindOf(j), ref)
		if err != nil {
			return nil, err
		}
		in.inputs = append(in.inputs, s)
	}
	rng := rand.New(rand.NewSource(mix(seed, saltColdOrder)))
	for lo := 0; lo < pool; lo += coldBlock {
		n := min(coldBlock, pool-lo)
		for _, i := range rng.Perm(n) {
			in.stream = append(in.stream, int32(lo+i))
		}
	}
	return in, nil
}

// editInputs: editPlans sessions over editBases base graphs, plus
// editWarmup warm-up sessions on bases outside the timed set. Like the
// instance pool, each session's script is fixed (corpusSeed); the seed
// relabels its base graph, and the script with it.
func editInputs(seed int64) (*inputs, error) {
	type base struct {
		orig, file *graph.File
		perm       []int
	}
	bases := make([]base, editBases+editWarmup)
	for j := range bases {
		ref := instRef{family: families[j%len(families)], index: editIndex + j/len(families), permSeed: mix(seed, saltEditBase, j)}
		orig, err := ref.original()
		if err != nil {
			return nil, err
		}
		perm := ref.perm(orig.G.N())
		bases[j] = base{orig: orig, file: relabel(orig, perm), perm: perm}
	}
	plan := func(p, j int) (*sessionPlan, error) {
		b := bases[j]
		script := corpus.GenEditScript(b.orig, 0, mix(corpusSeed, saltEditScript, p), editBatches*editBatchSize)
		sp := &sessionPlan{base: b.file, script: relabelScript(script, b.perm)}
		jobs, err := loadgen.JobsFromInstances([]*corpus.Instance{{File: b.file}}, loadgen.JobOptions{})
		if err != nil {
			return nil, err
		}
		var req service.Request
		if err := json.Unmarshal(jobs[0].Body, &req); err != nil {
			return nil, err
		}
		if sp.create, err = json.Marshal(service.DeltaRequest{Op: "create", Graph: req.Graph}); err != nil {
			return nil, err
		}
		for k := 0; k < editBatches; k++ {
			data, err := json.Marshal(sp.script[k*editBatchSize : (k+1)*editBatchSize])
			if err != nil {
				return nil, err
			}
			sp.batches = append(sp.batches, data)
		}
		return sp, nil
	}
	in := &inputs{scored: editBases}
	for p := 0; p < editPlans; p++ {
		sp, err := plan(p, p%editBases)
		if err != nil {
			return nil, err
		}
		in.plans = append(in.plans, sp)
	}
	for w := 0; w < editWarmup; w++ {
		sp, err := plan(editPlans+w, editBases+w)
		if err != nil {
			return nil, err
		}
		in.warmPlans = append(in.warmPlans, sp)
	}
	return in, nil
}

// relabelScript renames the base vertices a script touches by perm;
// vertices the script adds keep their ids, which follow the base's in
// either numbering.
func relabelScript(script []session.Delta, perm []int) []session.Delta {
	rename := func(v int) int {
		if v < len(perm) {
			return perm[v]
		}
		return v
	}
	out := make([]session.Delta, len(script))
	for i, d := range script {
		switch d.Op {
		case session.OpRemoveVertex:
			d.U = rename(d.U)
		case session.OpAddEdge, session.OpRemoveEdge, session.OpAddAffinity, session.OpRemoveAffinity, session.OpReweightAffinity:
			d.U, d.V = rename(d.U), rename(d.V)
		}
		out[i] = d
	}
	return out
}
