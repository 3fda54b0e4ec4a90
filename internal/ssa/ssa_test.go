package ssa

import (
	"math/rand"
	"testing"
	"testing/quick"

	"regcoal/internal/graph"
	"regcoal/internal/ir"
)

func TestDominanceDiamond(t *testing.T) {
	f := ir.Diamond()
	d := NewDominance(f)
	// entry dominates everything; left/right dominate only themselves;
	// join's idom is entry.
	if d.Idom[1] != 0 || d.Idom[2] != 0 || d.Idom[3] != 0 {
		t.Fatalf("idoms: %v", d.Idom)
	}
	if !d.Dominates(0, 3) || d.Dominates(1, 3) {
		t.Fatal("dominance wrong on diamond")
	}
	// join is in the frontier of both arms.
	foundL, foundR := false, false
	for _, x := range d.Frontier[1] {
		if x == 3 {
			foundL = true
		}
	}
	for _, x := range d.Frontier[2] {
		if x == 3 {
			foundR = true
		}
	}
	if !foundL || !foundR {
		t.Fatalf("frontiers: %v", d.Frontier)
	}
}

func TestDominanceLoop(t *testing.T) {
	f := ir.Loop()
	d := NewDominance(f)
	// head dominates body and exit.
	if !d.Dominates(1, 2) || !d.Dominates(1, 3) {
		t.Fatal("loop head must dominate body and exit")
	}
	// head is in its own frontier (back edge).
	self := false
	for _, x := range d.Frontier[2] {
		if x == 1 {
			self = true
		}
	}
	if !self {
		t.Fatalf("body's frontier should contain head: %v", d.Frontier)
	}
}

func TestDominanceUnreachable(t *testing.T) {
	f := ir.NewFunc("t")
	f.NewBlock("island")
	d := NewDominance(f)
	if d.Reachable(1) {
		t.Fatal("island reported reachable")
	}
	if d.Dominates(1, 0) {
		t.Fatal("unreachable block dominates entry?")
	}
}

func TestBuildDiamondPlacesPhi(t *testing.T) {
	f := ir.Diamond()
	ssaF, err := Build(f)
	if err != nil {
		t.Fatal(err)
	}
	phis := 0
	for _, b := range ssaF.Blocks {
		for _, ins := range b.Instrs {
			if ins.Op == ir.OpPhi {
				phis++
			}
		}
	}
	if phis == 0 {
		t.Fatal("diamond must need a φ for c at the join")
	}
	if err := VerifySSA(ssaF); err != nil {
		t.Fatal(err)
	}
}

func TestBuildLoopPlacesPhis(t *testing.T) {
	ssaF, err := Build(ir.Loop())
	if err != nil {
		t.Fatal(err)
	}
	// Loop head needs φs for i and s.
	head := ssaF.Blocks[1]
	phis := 0
	for _, ins := range head.Instrs {
		if ins.Op == ir.OpPhi {
			phis++
		}
	}
	if phis < 2 {
		t.Fatalf("loop head has %d φs, want >= 2", phis)
	}
}

func TestBuildRejectsPhiInput(t *testing.T) {
	f := ir.NewFunc("t")
	r := f.NewReg()
	f.Entry().Phi(r)
	if _, err := Build(f); err == nil {
		t.Fatal("input with φ accepted")
	}
}

func TestQuickBuildProducesValidSSA(t *testing.T) {
	f := func(seed int64, varsRaw, blocksRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		p := ir.DefaultRandomParams()
		p.Vars = int(varsRaw%8) + 1
		p.Blocks = int(blocksRaw%8) + 1
		fn := ir.Random(rng, p)
		ssaF, err := Build(fn)
		if err != nil {
			return false
		}
		return VerifySSA(ssaF) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestLivenessStraightLine(t *testing.T) {
	f := ir.NewFunc("t")
	a := f.NewReg()
	b := f.NewReg()
	f.Entry().Def(a)
	f.Entry().Def(b, a)
	next := f.NewBlock("next")
	f.AddEdge(f.Entry(), next)
	next.Use(b)
	lv := NewLiveness(f)
	if !lv.LiveOut[0].Has(b) {
		t.Fatal("b must be live out of entry")
	}
	if lv.LiveOut[0].Has(a) {
		t.Fatal("a dies inside entry")
	}
	if lv.LiveIn[1].Count() != 1 {
		t.Fatalf("live-in of next = %v", lv.LiveIn[1].Members())
	}
}

func TestMaxliveCounts(t *testing.T) {
	// a and b overlap; c replaces both.
	f := ir.NewFunc("t")
	a, b, c := f.NewReg(), f.NewReg(), f.NewReg()
	e := f.Entry()
	e.Def(a)
	e.Def(b)
	e.Def(c, a, b)
	e.Use(c)
	lv := NewLiveness(f)
	if got := lv.Maxlive(); got != 2 {
		t.Fatalf("Maxlive=%d, want 2", got)
	}
}

func TestBitsetOps(t *testing.T) {
	b := NewBitset(130)
	b.Set(0)
	b.Set(64)
	b.Set(129)
	if !b.Has(0) || !b.Has(64) || !b.Has(129) || b.Has(1) {
		t.Fatal("set/has wrong")
	}
	if b.Count() != 3 {
		t.Fatalf("count=%d", b.Count())
	}
	m := b.Members()
	if len(m) != 3 || m[0] != 0 || m[1] != 64 || m[2] != 129 {
		t.Fatalf("members=%v", m)
	}
	b.Clear(64)
	if b.Has(64) || b.Count() != 2 {
		t.Fatal("clear wrong")
	}
	c := NewBitset(130)
	if c.Or(b) != true || c.Count() != 2 {
		t.Fatal("or wrong")
	}
	if c.Or(b) != false {
		t.Fatal("or should report no change")
	}
}

func TestBuildInterferenceMoveRefinement(t *testing.T) {
	// move b = a with a still live afterwards: the refined graph has no
	// edge (a, b) but an affinity; the intersection graph has the edge.
	f := ir.NewFunc("t")
	a, b := f.NewReg(), f.NewReg()
	e := f.Entry()
	e.Def(a)
	e.Move(b, a)
	e.Use(a)
	e.Use(b)
	refined, _ := BuildInterference(f)
	if refined.HasEdge(graph.V(a), graph.V(b)) {
		t.Fatal("move refinement should drop the (a,b) edge")
	}
	if refined.NumAffinities() != 1 {
		t.Fatalf("affinities=%d", refined.NumAffinities())
	}
	pure, _ := BuildIntersection(f)
	if !pure.HasEdge(graph.V(a), graph.V(b)) {
		t.Fatal("intersection graph must keep the (a,b) edge")
	}
}

func TestPipelineDiamondCarriesAffinities(t *testing.T) {
	// The diamond's lowering must produce at least one move and hence an
	// affinity in its interference graph.
	_, low, err := Pipeline(ir.Diamond())
	if err != nil {
		t.Fatal(err)
	}
	g, _ := BuildInterference(low)
	if g.NumAffinities() == 0 {
		t.Fatal("lowered diamond must carry affinities")
	}
}

func TestSplitCriticalEdges(t *testing.T) {
	// entry branches to {b, join}; b falls to join: edge entry->join is
	// critical.
	f := ir.NewFunc("t")
	b := f.NewBlock("b")
	join := f.NewBlock("join")
	f.AddEdge(f.Entry(), b)
	f.AddEdge(f.Entry(), join)
	f.AddEdge(b, join)
	n := SplitCriticalEdges(f)
	if n != 1 {
		t.Fatalf("split %d edges, want 1", n)
	}
	if err := f.Verify(); err != nil {
		t.Fatal(err)
	}
	// No critical edge remains.
	for _, blk := range f.Blocks {
		if len(blk.Succs) < 2 {
			continue
		}
		for _, s := range blk.Succs {
			if len(f.Blocks[s].Preds) >= 2 {
				t.Fatal("critical edge remains")
			}
		}
	}
}

func TestSequentializeParallelCopySwap(t *testing.T) {
	// Swap needs a temp: pairs (a<-b), (b<-a).
	var moves [][2]ir.Reg
	temps := 0
	sequentializeParallelCopy(
		[]copyPair{{dst: 0, src: 1}, {dst: 1, src: 0}},
		func() ir.Reg { temps++; return ir.Reg(100) },
		func(dst, src ir.Reg) { moves = append(moves, [2]ir.Reg{dst, src}) },
	)
	if temps != 1 {
		t.Fatalf("swap should use exactly one temp, used %d", temps)
	}
	if len(moves) != 3 {
		t.Fatalf("swap should emit 3 moves, got %v", moves)
	}
	// Simulate and check.
	vals := map[ir.Reg]int{0: 10, 1: 20}
	for _, m := range moves {
		vals[m[0]] = vals[m[1]]
	}
	if vals[0] != 20 || vals[1] != 10 {
		t.Fatalf("swap result %v", vals)
	}
}

// Property: sequentialization realizes the parallel semantics for random
// permutations plus random tree copies.
func TestQuickSequentializeParallelCopy(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%6) + 1
		rng := rand.New(rand.NewSource(seed))
		// Random assignment: distinct dsts 0..n-1, srcs random in 0..n+1.
		pairs := make([]copyPair, n)
		for i := range pairs {
			pairs[i] = copyPair{dst: ir.Reg(i), src: ir.Reg(rng.Intn(n + 2))}
		}
		next := ir.Reg(1000)
		var moves [][2]ir.Reg
		sequentializeParallelCopy(pairs,
			func() ir.Reg { next++; return next },
			func(dst, src ir.Reg) { moves = append(moves, [2]ir.Reg{dst, src}) })
		// Simulate sequentially and compare with parallel semantics.
		before := map[ir.Reg]int{}
		for i := 0; i < n+2; i++ {
			before[ir.Reg(i)] = i * 7
		}
		seq := map[ir.Reg]int{}
		for k, v := range before {
			seq[k] = v
		}
		for _, m := range moves {
			seq[m[0]] = seq[m[1]]
		}
		for _, p := range pairs {
			if seq[p.dst] != before[p.src] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestLowerSwapUsesTemp(t *testing.T) {
	ssaF, err := Build(ir.Swap())
	if err != nil {
		t.Fatal(err)
	}
	low, err := Lower(ssaF)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range low.Blocks {
		for _, ins := range b.Instrs {
			if ins.Op == ir.OpPhi {
				t.Fatal("φ survived lowering")
			}
		}
	}
	if low.CountMoves() == 0 {
		t.Fatal("lowering must insert moves")
	}
}

// Semantics preservation through the whole pipeline: interpret the original
// and the lowered program on matching inputs and compare every use's
// observed values. The interpreter gives def(args...) a deterministic
// value, so any renaming/copy bug shows up.
func TestQuickPipelinePreservesSemantics(t *testing.T) {
	f := func(seed int64, varsRaw, blocksRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		p := ir.DefaultRandomParams()
		p.Vars = int(varsRaw%6) + 1
		p.Blocks = int(blocksRaw%6) + 1
		fn := ir.Random(rng, p)
		ssaF, low, err := Pipeline(fn)
		if err != nil {
			return false
		}
		_ = ssaF
		pathSeed := seed ^ 0x9e3779b9
		a := interpret(fn, pathSeed, 4096)
		b := interpret(low, pathSeed, 4096)
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// interpret executes a φ-free function, choosing successor blocks with a
// deterministic PRNG so the original and lowered functions follow the same
// control-flow path (lowering only splits edges and inserts moves, so the
// branch decision sequence corresponds 1:1). It returns the sequence of
// values observed by OpUse instructions, up to maxSteps instructions.
func interpret(f *ir.Func, seed int64, maxSteps int) []int64 {
	rng := rand.New(rand.NewSource(seed))
	vals := make([]int64, f.NumRegs)
	var observed []int64
	bi := 0
	steps := 0
	for steps < maxSteps {
		b := f.Blocks[bi]
		for _, ins := range b.Instrs {
			steps++
			switch ins.Op {
			case ir.OpDef:
				// Deterministic function of the args and a counter-free
				// mix, so equal inputs give equal outputs across programs.
				var v int64 = 1469598103934665603
				for _, a := range ins.Args {
					v = (v ^ vals[a]) * 1099511628211
				}
				vals[ins.Dst] = v
			case ir.OpMove:
				vals[ins.Dst] = vals[ins.Args[0]]
			case ir.OpUse:
				for _, a := range ins.Args {
					observed = append(observed, vals[a])
				}
			case ir.OpPhi:
				panic("interpret: φ in executable code")
			}
		}
		if len(b.Succs) == 0 {
			break
		}
		// Choose the successor deterministically. Lowered functions may
		// have split critical edges: their choice happens at the same
		// original block because split blocks have a single successor and
		// consume no randomness.
		if len(b.Succs) == 1 {
			bi = b.Succs[0]
		} else {
			bi = b.Succs[rng.Intn(len(b.Succs))]
		}
	}
	return observed
}
