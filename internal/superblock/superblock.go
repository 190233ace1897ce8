// Package superblock implements superblock formation (Hwu et al., "The
// Superblock: An effective technique for VLIW and superscalar
// compilation"), the ILP compilation technique used for the paper's
// baseline processor (§4.1).
//
// A superblock is a trace of basic blocks with a single entry at the top:
// side entrances are removed by tail duplication, then the trace is merged
// into one block containing mid-block exit branches.  Speculative code
// motion across those exit branches is performed later by the scheduler
// (internal/sched) using the architecture's silent instruction versions.
package superblock

import (
	"sort"

	"predication/internal/cfg"
	"predication/internal/ir"
)

// Params tunes trace selection.
type Params struct {
	// MinProb is the minimum successor edge probability to extend a trace.
	MinProb float64
	// MinCount is the minimum execution count for a block to seed or join
	// a trace.
	MinCount int64
	// MaxBlocks bounds the trace length.
	MaxBlocks int
	// MaxDupInstrs bounds the number of instructions tail duplication may
	// copy for one trace.
	MaxDupInstrs int
}

// DefaultParams returns the parameters used in the experiments.
func DefaultParams() Params {
	return Params{MinProb: 0.65, MinCount: 32, MaxBlocks: 24, MaxDupInstrs: 256}
}

// Form performs superblock formation on every function of the program using
// the given profile.  The profile must have been collected on this exact
// program object.
func Form(p *ir.Program, prof *cfg.Profile, params Params) {
	for _, f := range p.Funcs {
		formFunc(f, prof, params)
	}
}

func formFunc(f *ir.Func, prof *cfg.Profile, params Params) {
	inTrace := map[int]bool{}
	// One CFG serves the whole formation: tail duplication and merging
	// patch the blocks they rewrite instead of rebuilding it.
	g := cfg.NewGraph(f)
	// Profile weights are fixed for the whole formation, so the candidate
	// seeds can be ranked once up front instead of rescanning every block
	// per trace.  Blocks created later (tail-duplication clones) have no
	// profile entry and can never outweigh MinCount, so the ranking stays
	// complete; the degenerate MinCount <= 0 configuration falls back to
	// the rescan to keep selection order identical.
	var ranked []int
	if params.MinCount > 0 {
		ranked = rankSeeds(f, prof, params)
	}
	for {
		var seed int
		if params.MinCount > 0 {
			// Drop permanently ineligible entries (traced or dead) while
			// scanning; unreachable blocks are skipped but kept, since a
			// later rebuild could in principle see them differently.
			seed = -1
			kept := ranked[:0]
			for i, id := range ranked {
				if inTrace[id] || f.Blocks[id].Dead {
					continue
				}
				if seed < 0 && g.Reachable(id) {
					seed = id
				}
				kept = append(kept, id)
				if seed >= 0 {
					kept = append(kept, ranked[i+1:]...)
					break
				}
			}
			ranked = kept
		} else {
			seed = selectSeed(f, g, prof, params, inTrace)
		}
		if seed < 0 {
			break
		}
		trace := growTrace(f, g, prof, params, seed, inTrace)
		for _, id := range trace {
			inTrace[id] = true
		}
		if len(trace) < 2 {
			continue
		}
		trace = removeSideEntrances(f, g, params, trace)
		if checkStep != nil {
			checkStep(g)
		}
		if len(trace) >= 2 {
			merge(f, g, trace)
			if checkStep != nil {
				checkStep(g)
			}
		}
	}
}

// checkStep, when a test sets it, sees the graph after every step that
// patches it, so the test can hold it to a fresh cfg.NewGraph.
var checkStep func(g *cfg.Graph)

// rankSeeds lists the IDs of all live blocks heavy enough to seed a trace,
// highest weight first (ties go to the lower ID, matching selectSeed's
// first-wins scan order).
func rankSeeds(f *ir.Func, prof *cfg.Profile, params Params) []int {
	type cand struct {
		id int
		w  int64
	}
	var cands []cand
	for _, b := range f.LiveBlocks(nil) {
		if w := prof.Weight(b); w >= params.MinCount {
			cands = append(cands, cand{b.ID, w})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].w != cands[j].w {
			return cands[i].w > cands[j].w
		}
		return cands[i].id < cands[j].id
	})
	ids := make([]int, len(cands))
	for i, c := range cands {
		ids[i] = c.id
	}
	return ids
}

// selectSeed picks the highest-weight block not yet in a trace.
func selectSeed(f *ir.Func, g *cfg.Graph, prof *cfg.Profile, params Params, inTrace map[int]bool) int {
	best, bestW := -1, params.MinCount-1
	for _, b := range f.LiveBlocks(nil) {
		if inTrace[b.ID] || !g.Reachable(b.ID) {
			continue
		}
		if w := prof.Weight(b); w > bestW {
			best, bestW = b.ID, w
		}
	}
	return best
}

// growTrace extends the seed forward along the most likely successor edges.
func growTrace(f *ir.Func, g *cfg.Graph, prof *cfg.Profile, params Params, seed int, inTrace map[int]bool) []int {
	trace := []int{seed}
	seen := map[int]bool{seed: true}
	cur := seed
	for len(trace) < params.MaxBlocks {
		next, ok := bestSuccessor(f, prof, params, cur)
		if !ok || seen[next] || inTrace[next] {
			break
		}
		nb := f.Blocks[next]
		if prof.Weight(nb) < params.MinCount {
			break
		}
		if next == f.Entry {
			break // keep the function entry a trace head only
		}
		if hasHazard(nb) {
			break
		}
		trace = append(trace, next)
		seen[next] = true
		cur = next
	}
	return trace
}

// bestSuccessor returns cur's most likely successor if its edge probability
// passes the threshold.
func bestSuccessor(f *ir.Func, prof *cfg.Profile, params Params, cur int) (int, bool) {
	b := f.Blocks[cur]
	total := int64(0)
	type edge struct {
		target int
		count  int64
	}
	var edges []edge
	for _, in := range b.Instrs {
		switch in.Op {
		case ir.Jump, ir.BrEQ, ir.BrNE, ir.BrLT, ir.BrLE, ir.BrGT, ir.BrGE:
			c := prof.Taken[in]
			edges = append(edges, edge{in.Target, c})
			total += c
		}
	}
	if !b.EndsUnconditionally() && b.Fall >= 0 {
		c := prof.FallExit[b]
		edges = append(edges, edge{b.Fall, c})
		total += c
	}
	if total == 0 {
		return 0, false
	}
	best := edge{-1, -1}
	for _, e := range edges {
		if e.count > best.count {
			best = e
		}
	}
	if best.target < 0 || float64(best.count)/float64(total) < params.MinProb {
		return 0, false
	}
	return best.target, true
}

// hasHazard reports whether the block contains an instruction that should
// terminate trace growth (subroutine calls and returns).
func hasHazard(b *ir.Block) bool {
	for _, in := range b.Instrs {
		if in.Op == ir.JSR || in.Op == ir.Ret || in.Op == ir.Halt {
			return true
		}
	}
	return false
}

// removeSideEntrances tail-duplicates the trace suffix from the first block
// with a predecessor outside the trace, so the trace becomes single entry.
// If duplication would exceed the budget the trace is truncated instead.
// g must reflect f's current block structure, and is patched to match the
// duplication.
func removeSideEntrances(f *ir.Func, g *cfg.Graph, params Params, trace []int) []int {
	pos := map[int]int{}
	for i, id := range trace {
		pos[id] = i
	}
	first := -1
	for i := 1; i < len(trace); i++ {
		id := trace[i]
		for _, p := range g.Preds[id] {
			if pi, ok := pos[p]; !ok || pi != i-1 {
				first = i
				break
			}
		}
		if first >= 0 {
			break
		}
	}
	if first < 0 {
		return trace
	}
	// Budget check.
	dupInstrs := 0
	for _, id := range trace[first:] {
		dupInstrs += len(f.Blocks[id].Instrs)
	}
	if dupInstrs > params.MaxDupInstrs {
		return trace[:first]
	}
	// Duplicate trace[first:] as a chain of fresh blocks.  patch collects
	// every block whose edges change: the clones and the redirected
	// predecessors.
	clone := map[int]int{}
	var patch []int
	for _, id := range trace[first:] {
		ob := f.Blocks[id]
		nb := f.NewBlock()
		nb.Name = ob.Name + ".dup"
		nb.Fall = ob.Fall
		for _, in := range ob.Instrs {
			nb.Instrs = append(nb.Instrs, in.Clone())
		}
		clone[id] = nb.ID
		patch = append(patch, nb.ID)
	}
	// Internal edges within the duplicated suffix point at the duplicates.
	for _, id := range trace[first:] {
		nb := f.Blocks[clone[id]]
		for _, in := range nb.Instrs {
			switch in.Op {
			case ir.Jump, ir.BrEQ, ir.BrNE, ir.BrLT, ir.BrLE, ir.BrGT, ir.BrGE:
				if c, ok := clone[in.Target]; ok {
					in.Target = c
				}
			}
		}
		if c, ok := clone[nb.Fall]; ok {
			nb.Fall = c
		}
	}
	// Redirect all side entrances (any predecessor edge that is not the
	// sequential edge from the preceding trace block) into the duplicates.
	// Forward internal edges that skip a trace block count as side
	// entrances too.  g predates the duplication, so every pid here is an
	// original block.
	for i := first; i < len(trace); i++ {
		id := trace[i]
		for _, pid := range g.Preds[id] {
			if pi, ok := pos[pid]; ok && pi == i-1 {
				continue
			}
			pb := f.Blocks[pid]
			for _, in := range pb.Instrs {
				switch in.Op {
				case ir.Jump, ir.BrEQ, ir.BrNE, ir.BrLT, ir.BrLE, ir.BrGT, ir.BrGE:
					if in.Target == id {
						in.Target = clone[id]
					}
				}
			}
			if pb.Fall == id {
				pb.Fall = clone[id]
			}
			patch = append(patch, pid)
		}
	}
	g.Patch(patch...)
	return trace
}

// merge concatenates the (now single-entry) trace into its head block,
// turning internal branches into fallthrough and keeping exit branches
// inline, and patches g to match.  The non-head trace blocks become dead.
func merge(f *ir.Func, g *cfg.Graph, trace []int) {
	head := f.Blocks[trace[0]]
	var out []*ir.Instr
	out = append(out, head.Instrs...)
	prev := head
	for i := 1; i < len(trace); i++ {
		next := f.Blocks[trace[i]]
		out = linkInto(out, prev, next.ID)
		out = append(out, next.Instrs...)
		prev = next
	}
	head.Instrs = out
	head.Fall = prev.Fall
	for _, id := range trace[1:] {
		f.Blocks[id].Dead = true
		f.Blocks[id].Instrs = nil
	}
	g.Patch(trace...)
}

// linkInto rewrites prev's terminator so control continues inline to the
// next trace block: an unconditional jump to next is dropped, and a
// conditional branch targeting next is inverted so that the trace path
// falls through.
func linkInto(out []*ir.Instr, prev *ir.Block, nextID int) []*ir.Instr {
	if len(out) == 0 {
		return out
	}
	t := out[len(out)-1]
	switch {
	case t.Op == ir.Jump && t.Target == nextID && t.Guard == ir.PNone:
		return out[:len(out)-1]
	case t.Op.IsCondBranch() && t.Target == nextID:
		// Invert the branch: the old fallthrough becomes the taken target.
		c, _ := ir.BranchCmp(t.Op)
		inv, _ := c.Invert().BranchOp()
		t.Op = inv
		t.Target = prev.Fall
		return out
	}
	// prev falls through to next already.
	return out
}
