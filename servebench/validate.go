package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync/atomic"

	"regcoal/internal/corpus"
	"regcoal/internal/graph"
	"regcoal/internal/service"
	"regcoal/internal/service/loadgen"
	"regcoal/internal/session"
)

// verdict is the correctness gate's outcome over one timed phase, plus
// the answer quality it read along the way.
type verdict struct {
	failed   int // non-2xx, transport errors, and invalid or inconsistent bodies
	firstErr string

	coalescedW, remainingW int64 // coalesce, allocate and session answers
	spillCost              int64
	spillAnswers           int
	deadlineHits           int
	solveAnswers           int
	paths                  map[string]int // session delta answers by path
	deltaAnswers           int
	sessionOf              map[string]string // trace → session id
}

func (v *verdict) fail(n int, format string, args ...any) {
	v.failed += n
	if v.firstErr == "" {
		v.firstErr = fmt.Sprintf(format, args...)
	}
}

// validateSolve checks the solve workloads: every answer to one body
// must be byte-identical to the first, and each first answer must be a
// valid solution of the (relabeled) instance its body carries.
func validateSolve(in *inputs, recs []record, first []atomic.Pointer[[]byte]) *verdict {
	v := &verdict{}
	counts := make(map[int32]int)
	for i := range recs {
		r := &recs[i]
		switch {
		case !r.ok():
			v.fail(1, "input %d: status %d", r.input, r.status)
		case r.mismatch:
			v.fail(1, "input %d: answer differs from the first answer to the same body", r.input)
		default:
			counts[r.input]++
		}
	}
	for id, n := range counts {
		weight := n
		if int(id) >= in.scored {
			weight = 0
		}
		s := &in.inputs[id]
		if err := checkSolve(s, *first[id].Load(), weight, v); err != nil {
			v.fail(n, "input %d (%s %s[%d]): %v", id, s.kind, s.ref.family, s.ref.index, err)
		}
	}
	return v
}

// checkSolve validates one answer and adds its quality, weighted by the
// n times it was served (0 outside the scored inputs).
func checkSolve(in *solveInput, body []byte, n int, v *verdict) error {
	f, err := in.ref.file()
	if err != nil {
		return err
	}
	switch in.kind {
	case service.KindCoalesce:
		var out service.CoalesceResult
		if err := json.Unmarshal(body, &out); err != nil {
			return err
		}
		if err := loadgen.ValidateCoalesce(f, &out); err != nil {
			return err
		}
		v.coalescedW += int64(n) * out.CoalescedWeight
		v.remainingW += int64(n) * out.RemainingWeight
		v.noteDeadline(out.DeadlineHit, n)
	case service.KindAllocate:
		var out service.AllocateResult
		if err := json.Unmarshal(body, &out); err != nil {
			return err
		}
		if err := loadgen.ValidateAllocate(f, &out); err != nil {
			return err
		}
		v.coalescedW += int64(n) * out.CoalescedWeight
		v.remainingW += int64(n) * out.RemainingWeight
		v.noteDeadline(out.DeadlineHit, n)
	case service.KindSpill:
		var out service.SpillResult
		if err := json.Unmarshal(body, &out); err != nil {
			return err
		}
		if err := loadgen.ValidateSpill(f, &out); err != nil {
			return err
		}
		v.spillCost += int64(n) * out.SpillCost
		v.spillAnswers += n
		v.noteDeadline(out.DeadlineHit, n)
	}
	return nil
}

func (v *verdict) noteDeadline(hit bool, n int) {
	v.solveAnswers += n
	if hit {
		v.deadlineHits += n
	}
}

// validateSessions checks every session response: versions advance by
// one, and each result is a valid coalescing (and, when colorable, a
// proper coloring) of the reference model's edited graph at that point of
// the script, with the reported costs recomputed from it.
func validateSessions(in *inputs, recs []record) *verdict {
	v := &verdict{paths: make(map[string]int), sessionOf: make(map[string]string)}
	bySession := make(map[int32][]*record)
	for i := range recs {
		bySession[recs[i].input] = append(bySession[recs[i].input], &recs[i])
	}
	for s, rs := range bySession {
		plan := in.plans[int(s)%len(in.plans)]
		var id string
		for _, r := range rs {
			if id != "" {
				v.sessionOf[r.trace] = id
			}
			if !r.ok() {
				v.fail(1, "session %d step %d: status %d: %.200s", s, r.step, r.status, r.body)
				continue
			}
			var out service.DeltaResponse
			if err := json.Unmarshal(r.body, &out); err != nil {
				v.fail(1, "session %d step %d: %v", s, r.step, err)
				continue
			}
			if r.step < 0 {
				id = out.SessionID
				v.sessionOf[r.trace] = id
			}
			if err := checkSessionStep(plan, r.step, id, &out, int(s) < in.scored, v); err != nil {
				v.fail(1, "session %d step %d: %v", s, r.step, err)
			}
		}
	}
	return v
}

// checkSessionStep validates one session response; scored adds its
// quality to v.
func checkSessionStep(plan *sessionPlan, step int16, id string, out *service.DeltaResponse, scored bool, v *verdict) error {
	if out.SessionID != id || id == "" {
		return fmt.Errorf("session id %q, want %q", out.SessionID, id)
	}
	if step == editBatches {
		if !out.Closed {
			return errors.New("close not acknowledged")
		}
		return nil
	}
	if out.Version != int64(step)+1 {
		return fmt.Errorf("version %d, want %d", out.Version, step+1)
	}
	n := (int(step) + 1) * editBatchSize
	if step < 0 {
		if h := graph.CanonicalHash(plan.base); out.BaseHash != h {
			return fmt.Errorf("base_hash %s, want %s", out.BaseHash, h)
		}
		n = 0
	} else {
		v.paths[out.Path]++
		v.deltaAnswers++
	}
	edited := corpus.ApplyEditScript(plan.base, 0, plan.script[:n])
	if err := checkDelta(out.Result, edited, aliveAfter(plan.base.G.N(), plan.script[:n])); err != nil {
		return err
	}
	if scored {
		v.coalescedW += out.Result.CoalescedWeight
		v.remainingW += out.Result.RemainingWeight
	}
	return nil
}

// aliveAfter replays a script's vertex churn over n base vertices.
func aliveAfter(n int, script []session.Delta) []bool {
	alive := make([]bool, n)
	for i := range alive {
		alive[i] = true
	}
	for _, d := range script {
		switch d.Op {
		case session.OpAddVertex:
			alive = append(alive, true)
		case session.OpRemoveVertex:
			alive[d.U] = false
		}
	}
	return alive
}

// checkDelta validates a session result, in session ids, against the
// edited graph g, whose vertices are the alive session ids compacted in
// order.
func checkDelta(res *service.DeltaResult, g *graph.File, alive []bool) error {
	if res == nil {
		return errors.New("missing result")
	}
	var ids []int // compact id → session id
	compact := make([]graph.V, len(alive))
	for v, a := range alive {
		compact[v] = -1
		if a {
			compact[v] = graph.V(len(ids))
			ids = append(ids, v)
		}
	}
	if res.K != g.K || res.Vertices != len(ids) || res.NextVertex != len(alive) || g.G.N() != len(ids) {
		return fmt.Errorf("shape k=%d vertices=%d next=%d, want %d/%d/%d", res.K, res.Vertices, res.NextVertex, g.K, len(ids), len(alive))
	}
	class := make([]int, len(alive))
	for i := range class {
		class[i] = -1
	}
	for c, cls := range res.Classes {
		if len(cls) == 0 {
			return fmt.Errorf("class %d is empty", c)
		}
		for i, u := range cls {
			if u < 0 || u >= len(alive) || !alive[u] {
				return fmt.Errorf("class %d holds vertex %d, which is not alive", c, u)
			}
			if class[u] >= 0 {
				return fmt.Errorf("vertex %d appears in two classes", u)
			}
			class[u] = c
			for _, w := range cls[:i] {
				if g.G.HasEdge(compact[u], compact[w]) {
					return fmt.Errorf("class %d contains interfering pair (%d,%d)", c, w, u)
				}
			}
		}
	}
	for _, u := range ids {
		if class[u] < 0 {
			return fmt.Errorf("vertex %d missing from classes", u)
		}
	}
	if res.Colorable {
		if len(res.Coloring) != len(alive) {
			return fmt.Errorf("coloring length %d, want %d", len(res.Coloring), len(alive))
		}
		classColor := make([]int, len(res.Classes))
		for i := range classColor {
			classColor[i] = -1
		}
		for u, col := range res.Coloring {
			if !alive[u] {
				if col != graph.NoColor {
					return fmt.Errorf("dead vertex %d has color %d", u, col)
				}
				continue
			}
			if col < 0 || col >= res.K {
				return fmt.Errorf("vertex %d color %d outside [0,%d)", u, col, res.K)
			}
			if c := class[u]; classColor[c] < 0 {
				classColor[c] = col
			} else if classColor[c] != col {
				return fmt.Errorf("class %d not color-constant", c)
			}
		}
		for _, e := range g.G.Edges() {
			if a, b := ids[e[0]], ids[e[1]]; res.Coloring[a] == res.Coloring[b] {
				return fmt.Errorf("interfering vertices %d,%d share color %d", a, b, res.Coloring[a])
			}
		}
	}
	var cw, rw int64
	var cm, rm int
	for _, a := range g.G.Affinities() {
		if class[ids[a.X]] == class[ids[a.Y]] {
			cw += a.Weight
			cm++
		} else {
			rw += a.Weight
			rm++
		}
	}
	if cw != res.CoalescedWeight || rw != res.RemainingWeight || cm != res.CoalescedMoves || rm != res.RemainingMoves {
		return fmt.Errorf("costs coalesced %d/%d remaining %d/%d, recomputed %d/%d and %d/%d",
			res.CoalescedMoves, res.CoalescedWeight, res.RemainingMoves, res.RemainingWeight, cm, cw, rm, rw)
	}
	return nil
}
