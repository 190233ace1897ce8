package hyperblock

import (
	"fmt"
	"slices"
	"sort"

	"predication/internal/cfg"
	"predication/internal/ir"
	"predication/internal/machine"
)

// Result reports what formation did, so later passes (branch combining,
// promotion, scheduling) know which blocks are hyperblock heads.
type Result struct {
	// Heads maps function index to the block IDs of formed hyperblocks.
	Heads map[int][]int
}

// Form performs hyperblock formation on every function of the program.
// The profile must have been collected on this exact program object.
// A non-nil error means if-conversion hit an inconsistent region and the
// program may be partially rewritten; callers must discard it.
func Form(p *ir.Program, prof *cfg.Profile, params Params) (*Result, error) {
	res := &Result{Heads: map[int][]int{}}
	for fi, f := range p.Funcs {
		heads, err := formFunc(f, prof, params)
		if err != nil {
			return nil, fmt.Errorf("F%d: %w", fi, err)
		}
		if len(heads) > 0 {
			res.Heads[fi] = heads
		}
	}
	return res, nil
}

// region is a candidate single-entry acyclic region for if-conversion.
type region struct {
	seed   int
	blocks []int // includes seed; loop bodies exclude backedge edges
	weight int64
}

func formFunc(f *ir.Func, prof *cfg.Profile, params Params) ([]int, error) {
	var heads []int
	tried := map[int]bool{}
	// One graph serves the whole formation: tail duplication and
	// if-conversion patch the blocks they rewrite, and the graph is rebuilt
	// only at the start of each round, where the region analyses need a
	// fresh reverse postorder anyway.
	g := cfg.NewGraph(f)
	var sc scratch
	for round := 0; round < 8; round++ {
		if round > 0 {
			g.Rebuild()
		}
		regions := findRegions(f, g, prof, params, tried, &sc)
		formed := 0
		touched := make([]bool, len(f.Blocks))
		for _, r := range regions {
			// Regions overlapping blocks already transformed this round
			// are retried next round against fresh analyses.
			overlap := false
			for _, id := range r.blocks {
				if touched[id] {
					overlap = true
					break
				}
			}
			if overlap {
				continue
			}
			tried[r.seed] = true
			ok, err := tryForm(f, g, prof, params, r, &sc)
			if err != nil {
				return nil, err
			}
			if ok {
				heads = append(heads, r.seed)
				formed++
				for _, id := range r.blocks {
					touched[id] = true
				}
			}
		}
		if formed == 0 {
			break
		}
	}
	return heads, nil
}

// scratch holds dense per-block arrays that region enumeration and
// topological ordering reuse from candidate to candidate: a function with
// thousands of blocks yields thousands of candidates, and a map per
// candidate dominated formation's cost.
type scratch struct {
	member []int32 // block -> stamp of the region it was last added to
	stamp  int32
	state  []uint8 // topoOrder's visit state, all zero between calls
	order  []int   // topoOrder's output buffer for findRegions
}

// newRegion starts an empty membership set sized for f.
func (sc *scratch) newRegion(f *ir.Func) {
	if n := len(f.Blocks); len(sc.member) < n {
		sc.member = append(sc.member, make([]int32, n-len(sc.member))...)
		sc.state = append(sc.state, make([]uint8, n-len(sc.state))...)
	}
	sc.stamp++
}

func (sc *scratch) add(id int)      { sc.member[id] = sc.stamp }
func (sc *scratch) has(id int) bool { return id < len(sc.member) && sc.member[id] == sc.stamp }

// findRegions enumerates candidate regions in decreasing weight order:
// innermost loop bodies first, then the acyclic non-loop portion rooted at
// the function entry.
func findRegions(f *ir.Func, g *cfg.Graph, prof *cfg.Profile, params Params, tried map[int]bool, sc *scratch) []*region {
	var regions []*region
	loops := g.NaturalLoops()
	for _, l := range loops {
		if tried[l.Header] {
			continue
		}
		w := prof.Weight(f.Blocks[l.Header])
		if w < params.MinCount {
			continue
		}
		// Innermost only: the body (minus edges into the header) must be
		// acyclic; topoOrder reports failure for nested loops.
		sc.newRegion(f)
		blocks := make([]int, 0, len(l.Blocks))
		for id := range l.Blocks {
			blocks = append(blocks, id)
			sc.add(id)
		}
		order, ok := topoOrder(g, sc.has, l.Header, sc.state, sc.order[:0])
		sc.order = order
		if ok {
			regions = append(regions, &region{seed: l.Header, blocks: blocks, weight: w})
		}
	}
	// Acyclic regions: for every sufficiently hot block that is not a loop
	// header, the set of blocks it dominates within the same innermost
	// loop context forms a single-entry acyclic candidate region (diamonds
	// and hammocks nested inside larger loops, or whole straight-line
	// functions rooted at the entry).
	innermost := make([]int, len(f.Blocks)) // block -> smallest containing loop header (-1 if none)
	for i := range innermost {
		innermost[i] = -1
	}
	for i := len(loops) - 1; i >= 0; i-- { // larger loops first; inner overwrite
		for id := range loops[i].Blocks {
			innermost[id] = loops[i].Header
		}
	}
	headers := make([]bool, len(f.Blocks))
	for _, l := range loops {
		headers[l.Header] = true
	}
	// Dominator-tree children let each candidate's dominated set be
	// collected by subtree walk instead of per-pair chain walks.
	idom := g.Dominators()
	children := make([][]int, len(f.Blocks))
	for id, d := range idom {
		if d >= 0 && d != id {
			children[d] = append(children[d], id)
		}
	}
	var stack []int
	for _, b := range f.LiveBlocks(nil) {
		seed := b.ID
		if tried[seed] || headers[seed] || !g.Reachable(seed) {
			continue
		}
		w := prof.Weight(b)
		if w < params.MinCount {
			continue
		}
		sc.newRegion(f)
		sc.add(seed)
		blocks := []int{seed}
		stack = append(stack[:0], children[seed]...)
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if innermost[x] != innermost[seed] {
				continue // different loop context; skip whole subtree anyway
			}
			blocks = append(blocks, x)
			sc.add(x)
			stack = append(stack, children[x]...)
		}
		if len(blocks) < 2 {
			continue
		}
		order, ok := topoOrder(g, sc.has, seed, sc.state, sc.order[:0])
		sc.order = order
		if ok {
			regions = append(regions, &region{seed: seed, blocks: blocks, weight: w})
		}
	}
	// Heaviest first; equal weights keep discovery order.
	sort.SliceStable(regions, func(i, j int) bool { return regions[i].weight > regions[j].weight })
	return regions
}

// topoOrder topologically sorts the blocks of a region (those member
// accepts), treating edges into the seed (loop back edges) as absent, and
// appends the order to dst.  It reports failure when the region is cyclic.
// state must be all zero, indexed by block ID, and is left that way.
func topoOrder(g *cfg.Graph, member func(int) bool, seed int, state []uint8, dst []int) ([]int, bool) {
	const onStack, done = 1, 2
	order := dst
	ok := true
	var visit func(int)
	visit = func(id int) {
		state[id] = onStack
		for _, s := range g.Succs[id] {
			if s == seed || !member(s) {
				continue
			}
			switch state[s] {
			case 0:
				visit(s)
			case onStack:
				ok = false
			}
		}
		state[id] = done
		order = append(order, id)
	}
	visit(seed)
	for _, id := range order[len(dst):] {
		state[id] = 0
	}
	if !ok {
		return order, false
	}
	// Reverse postorder.
	slices.Reverse(order[len(dst):])
	return order, true
}

// hasHazard reports whether a block cannot be included in a hyperblock:
// subroutine calls, returns, halts, and malformed blocks with internal
// branches (§3.1 excludes hazardous instructions).
func hasHazard(b *ir.Block) bool {
	for i, in := range b.Instrs {
		switch in.Op {
		case ir.JSR, ir.Ret, ir.Halt:
			return true
		case ir.PredDef, ir.PredClear, ir.PredSet, ir.CMov, ir.CMovCom:
			return true // already-predicated code is not re-converted
		}
		if in.Op.IsBranch() && i != len(b.Instrs)-1 {
			return true
		}
		if in.Guard != ir.PNone {
			return true
		}
	}
	return false
}

// tryForm selects blocks from the region, removes side entrances by tail
// duplication, and if-converts the selection into the seed block.  It
// reports whether a hyperblock was formed; a non-nil error is an
// if-conversion precondition failure that invalidates the function.  g
// must reflect f's current block structure, and every rewrite (tail
// duplication can happen even when no hyperblock results) patches it.
func tryForm(f *ir.Func, g *cfg.Graph, prof *cfg.Profile, params Params, r *region, sc *scratch) (bool, error) {
	sc.newRegion(f)
	for _, id := range r.blocks {
		sc.add(id)
	}
	order, ok := topoOrder(g, sc.has, r.seed, sc.state, nil)
	if !ok || len(order) < 2 {
		return false, nil
	}
	entryW := prof.Weight(f.Blocks[r.seed])
	if entryW < params.MinCount || hasHazard(f.Blocks[r.seed]) {
		return false, nil
	}

	// Block selection (§3.1): walk the region in topological order and
	// include blocks that are likely enough, hazard free, and within the
	// resource budget.
	sel := map[int]bool{r.seed: true}
	total := len(f.Blocks[r.seed].Instrs)
	waste := 0.0
	for _, id := range order {
		if id == r.seed {
			continue
		}
		b := f.Blocks[id]
		hasSelPred := false
		for _, p := range g.Preds[id] {
			if sel[p] {
				hasSelPred = true
			}
		}
		if !hasSelPred {
			continue
		}
		w := float64(prof.Weight(b))
		// Size tiers count the instructions that survive if-conversion:
		// a trailing unconditional jump becomes fallthrough or a define.
		size := len(b.Instrs)
		if tm := b.Terminator(); tm != nil && tm.Op == ir.Jump {
			size--
		}
		ratio := params.IncludeRatio
		switch {
		case size <= params.SmallBlockInstrs:
			ratio = params.SmallBlockRatio
		case size <= params.MediumBlockInstrs:
			ratio = params.MediumBlockRatio
		}
		if w < ratio*float64(entryW) {
			continue
		}
		if hasHazard(b) {
			continue
		}
		if blockHeight(b) > params.MaxBlockHeight && w < params.HeightProb*float64(entryW) {
			continue
		}
		if total+len(b.Instrs) > params.MaxInstrs {
			continue
		}
		// Over-saturation heuristic: nullified instructions still consume
		// fetch and issue slots, so cap the expected waste per execution.
		bw := (1 - w/float64(entryW)) * float64(len(b.Instrs))
		if waste+bw > params.MaxWaste {
			continue
		}
		sel[id] = true
		total += len(b.Instrs)
		waste += bw
	}
	// Prune branch-only blocks none of whose successors were selected:
	// converting a dispatch chain buys nothing when the code it dispatches
	// to stays outside the hyperblock (an N-way switch over excluded
	// handlers), and the resulting predicate chains only add height.  The
	// prune iterates bottom-up until stable, unwinding whole dispatch
	// trees while keeping classification chains that feed selected work.
	for changed := true; changed; {
		changed = false
		for id := range sel {
			if id == r.seed || !branchOnly(f.Blocks[id]) {
				continue
			}
			keep := false
			for _, s := range g.Succs[id] {
				if s != r.seed && sel[s] {
					keep = true
				}
			}
			if !keep {
				delete(sel, id)
				changed = true
			}
		}
	}
	closeSelection(g, sel, r.seed)
	if len(sel) < 2 {
		return false, nil
	}

	// Side-entrance removal by tail duplication (bounded), dropping blocks
	// when the duplication budget is exceeded.  A successful duplication
	// patches g, so it stays current throughout.
	for iter := 0; iter < 32; iter++ {
		entered := sideEntered(g, sel, r.seed)
		if entered < 0 {
			break
		}
		if tailDuplicate(f, g, sel, r.seed, entered, params.MaxDupInstrs) {
			if checkStep != nil {
				checkStep(g)
			}
		} else {
			delete(sel, entered)
			closeSelection(g, sel, r.seed)
		}
		if len(sel) < 2 {
			return false, nil
		}
	}

	if sideEntered(g, sel, r.seed) >= 0 {
		return false, nil
	}
	order, ok = topoOrder(g, func(id int) bool { return sel[id] }, r.seed, sc.state, nil)
	if !ok {
		return false, nil
	}
	if err := ifConvert(f, g, sel, r.seed, order); err != nil {
		return false, err
	}
	if checkStep != nil {
		checkStep(g)
	}
	return true, nil
}

// checkStep, when a test sets it, sees the graph after every step that
// patches it, so the test can hold it to a fresh cfg.NewGraph.
var checkStep func(g *cfg.Graph)

// blockHeight estimates the block's internal dependence height in cycles:
// the longest register flow chain using machine latencies.
func blockHeight(b *ir.Block) int {
	ready := map[ir.Reg]int{}
	height := 0
	var srcBuf [4]ir.Reg
	for _, in := range b.Instrs {
		start := 0
		for _, s := range in.SrcRegs(srcBuf[:0]) {
			if r := ready[s]; r > start {
				start = r
			}
		}
		end := start + machine.Latency(in.Op)
		if d := in.DefReg(); d != ir.RNone {
			ready[d] = end
		}
		if end > height {
			height = end
		}
	}
	return height
}

// branchOnly reports whether the block consists solely of control
// transfers (a pure dispatch node).
func branchOnly(b *ir.Block) bool {
	for _, in := range b.Instrs {
		if !in.Op.IsBranch() {
			return false
		}
	}
	return len(b.Instrs) > 0
}

// closeSelection removes selected blocks no longer reachable from the seed
// through selected blocks.
func closeSelection(g *cfg.Graph, sel map[int]bool, seed int) {
	reach := map[int]bool{seed: true}
	stack := []int{seed}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range g.Succs[id] {
			if s != seed && sel[s] && !reach[s] {
				reach[s] = true
				stack = append(stack, s)
			}
		}
	}
	for id := range sel {
		if !reach[id] {
			delete(sel, id)
		}
	}
}

// sideEntered returns the lowest-numbered selected non-seed block with a
// predecessor outside the selection, or -1.  Taking the lowest ID rather
// than the first in map order keeps formation, and so the compiled code,
// deterministic.
func sideEntered(g *cfg.Graph, sel map[int]bool, seed int) int {
	entered := -1
	for id := range sel {
		if id == seed || (entered >= 0 && id > entered) {
			continue
		}
		for _, p := range g.Preds[id] {
			if !sel[p] {
				entered = id
				break
			}
		}
	}
	return entered
}

// tailDuplicate clones the selected subgraph reachable from block `from`
// and redirects every edge from an unselected block into that subgraph to
// the clones, patching g to match.  It reports false (no change) when the
// clone would exceed the instruction budget.
func tailDuplicate(f *ir.Func, g *cfg.Graph, sel map[int]bool, seed, from, budget int) bool {
	// D = selected blocks reachable from `from` without passing the seed.
	dup := map[int]bool{}
	stack := []int{from}
	cost := 0
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if dup[id] {
			continue
		}
		dup[id] = true
		cost += len(f.Blocks[id].Instrs)
		for _, s := range g.Succs[id] {
			if s != seed && sel[s] && !dup[s] {
				stack = append(stack, s)
			}
		}
	}
	if cost > budget {
		return false
	}
	// Clone in block-ID order so the clones' IDs, and with them the code
	// layout, do not depend on map iteration order.
	ids := make([]int, 0, len(dup))
	for id := range dup {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	// patch collects every block whose edges change: the clones and the
	// redirected predecessors.
	clone := map[int]int{}
	var patch []int
	for _, id := range ids {
		ob := f.Blocks[id]
		nb := f.NewBlock()
		nb.Name = ob.Name + ".hdup"
		nb.Fall = ob.Fall
		for _, in := range ob.Instrs {
			nb.Instrs = append(nb.Instrs, in.Clone())
		}
		clone[id] = nb.ID
		patch = append(patch, nb.ID)
	}
	for id := range dup {
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
	// Redirect every unselected predecessor edge into the duplicated set.
	for id := range dup {
		for _, pid := range g.Preds[id] {
			if sel[pid] {
				continue
			}
			if _, isClone := clone[pid]; isClone {
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
	return true
}
