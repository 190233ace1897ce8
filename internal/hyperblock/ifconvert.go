package hyperblock

import (
	"fmt"

	"predication/internal/cfg"
	"predication/internal/ir"
)

// edgeKind classifies a control-flow edge within the selected region.
type edgeKind uint8

const (
	edgeUncond edgeKind = iota // jump or plain fallthrough, single successor
	edgeTaken                  // taken side of a conditional branch
	edgeFall                   // fallthrough side of a conditional branch
)

type inEdge struct {
	from int
	kind edgeKind
	cmp  ir.Cmp // branch comparison (edgeTaken/edgeFall)
	a, b ir.Operand
	// exitFall marks a fallthrough edge whose sibling taken edge leaves the
	// selection: in linear hyperblock code, reaching past the exit branch
	// implies the branch was not taken, so the successor may simply inherit
	// the predecessor's predicate (when it is the only in-edge).
	exitFall bool
}

// ifConvert merges the selected single-entry acyclic subgraph into the seed
// block, eliminating all internal control flow with predicate defines
// (Table 1 semantics) and predicating exit branches.  The classic RK-style
// predicate assignment is used: each selected block receives a predicate
// expressing its execution condition; single-condition blocks use
// unconditional (U) defines, join blocks use OR-type defines into a cleared
// predicate (§2.1, Figure 1).
//
// A non-nil error means the selection violated the conversion's
// preconditions (a region shape the selector should never produce).  The
// function may be partially rewritten at that point, so callers must treat
// the error as fatal for this compilation and discard the program — but the
// process survives, which is what lets the fuzzer and the experiment
// harness report the diagnostic instead of crashing.
func ifConvert(f *ir.Func, g *cfg.Graph, sel map[int]bool, seed int, order []int) error {
	inS := func(id int) bool { return sel[id] && id != seed }

	// Gather in-edges for every selected non-seed block.
	edges := map[int][]inEdge{}
	for _, aid := range order {
		ab := f.Blocks[aid]
		t := ab.Terminator()
		if t != nil && t.Op.IsCondBranch() {
			cmp, _ := ir.BranchCmp(t.Op)
			if inS(t.Target) {
				edges[t.Target] = append(edges[t.Target],
					inEdge{from: aid, kind: edgeTaken, cmp: cmp, a: t.A, b: t.B})
			}
			if inS(ab.Fall) {
				edges[ab.Fall] = append(edges[ab.Fall],
					inEdge{from: aid, kind: edgeFall, cmp: cmp, a: t.A, b: t.B,
						exitFall: !inS(t.Target)})
			}
		} else {
			// Unconditional: jump target or plain fallthrough.
			succ := -1
			if t != nil && t.Op == ir.Jump {
				succ = t.Target
			} else if !ab.EndsUnconditionally() {
				succ = ab.Fall
			}
			if succ >= 0 && inS(succ) {
				edges[succ] = append(edges[succ], inEdge{from: aid, kind: edgeUncond})
			}
		}
	}

	// Reconvergence analysis: a block that post-dominates one of its
	// dominators (considering only region-internal edges) executes exactly
	// when that dominator does, so it inherits the dominator's predicate
	// and needs no defines — e.g. the unconditional "add i,i,1" at the join
	// of the paper's Figure 1.  Ignoring exit edges is sound because
	// reaching a later position in the linear hyperblock already implies no
	// earlier exit branch was taken.
	ipdom := regionPostdoms(f, sel, seed, order)
	idom := regionDoms(g, seed, order)
	inheritFrom := func(bid int) (int, bool) {
		for a := idom[bid]; ; a = idom[a] {
			if a < 0 || !sel[a] {
				return 0, false
			}
			if regionPostdominates(ipdom, bid, a) {
				return a, true
			}
			if a == seed || idom[a] == a {
				return 0, false
			}
		}
	}

	// Assign predicates in topological order.
	predOf := map[int]ir.PReg{seed: ir.PNone}
	needClear := false
	// defsFor[A] collects, per predecessor block A, the predicate
	// destinations its terminator must define: dest for the taken edge and
	// dest for the fall edge (either may be empty).
	type termDefs struct {
		taken, fall  ir.PredDest
		uncondTarget ir.PReg // OR contribution for an unconditional edge into a join
	}
	defsFor := map[int]*termDefs{}
	getDefs := func(aid int) *termDefs {
		d := defsFor[aid]
		if d == nil {
			d = &termDefs{}
			defsFor[aid] = d
		}
		return d
	}
	for _, bid := range order {
		if bid == seed {
			continue
		}
		es := edges[bid]
		if len(es) == 0 {
			return fmt.Errorf("hyperblock: if-converting seed B%d of %s: selected block B%d has no in-edges", seed, f.Name, bid)
		}
		if a, ok := inheritFrom(bid); ok {
			predOf[bid] = predOf[a]
			continue
		}
		if len(es) == 1 {
			e := es[0]
			if e.kind == edgeUncond || e.exitFall {
				// Inherit the predecessor's predicate.
				predOf[bid] = predOf[e.from]
				continue
			}
			p := f.NewPReg()
			predOf[bid] = p
			d := getDefs(e.from)
			if e.kind == edgeTaken {
				d.taken = ir.PredDest{P: p, Type: ir.PredU}
			} else {
				d.fall = ir.PredDest{P: p, Type: ir.PredU}
			}
			continue
		}
		// Join: OR-type defines into a cleared predicate.
		p := f.NewPReg()
		predOf[bid] = p
		needClear = true
		for _, e := range es {
			d := getDefs(e.from)
			switch e.kind {
			case edgeTaken:
				d.taken = ir.PredDest{P: p, Type: ir.PredOR}
			case edgeFall:
				d.fall = ir.PredDest{P: p, Type: ir.PredOR}
			case edgeUncond:
				d.uncondTarget = p
			}
		}
	}

	// Emit the hyperblock.
	var out []*ir.Instr
	if needClear {
		out = append(out, &ir.Instr{Op: ir.PredClear})
	}
	for _, aid := range order {
		ab := f.Blocks[aid]
		guard := predOf[aid]
		body := ab.Instrs
		var term *ir.Instr
		if t := ab.Terminator(); t != nil && t.Op.IsBranch() {
			term = t
			body = body[:len(body)-1]
		}
		for _, in := range body {
			in.Guard = guard
			out = append(out, in)
		}
		d := defsFor[aid]

		switch {
		case term != nil && term.Op.IsCondBranch():
			cmp, _ := ir.BranchCmp(term.Op)
			takenIn, fallIn := inS(term.Target), inS(ab.Fall)
			var p1, p2 ir.PredDest
			if d != nil {
				p1 = d.taken
				// The fall-edge condition is the complement comparison,
				// expressed with the complement predicate type.
				if d.fall.Type != ir.PredNone {
					p2 = ir.PredDest{P: d.fall.P, Type: d.fall.Type.Complement()}
				}
			}
			switch {
			case takenIn && fallIn:
				if p1.Type != ir.PredNone || p2.Type != ir.PredNone {
					out = append(out, &ir.Instr{Op: ir.PredDef, Cmp: cmp,
						P1: p1, P2: p2, A: term.A, B: term.B, Guard: guard})
				}
			case takenIn && !fallIn:
				// Exit through the fall edge: guard it with a fresh
				// complement predicate on the same define.
				q := f.NewPReg()
				if p2.Type != ir.PredNone {
					return fmt.Errorf("hyperblock: if-converting seed B%d of %s: fall define %s for external fall edge of B%d", seed, f.Name, p2.P, aid)
				}
				p2 = ir.PredDest{P: q, Type: ir.PredUBar}
				out = append(out, &ir.Instr{Op: ir.PredDef, Cmp: cmp,
					P1: p1, P2: p2, A: term.A, B: term.B, Guard: guard})
				out = append(out, &ir.Instr{Op: ir.Jump, Target: ab.Fall, Guard: q})
			case !takenIn && fallIn:
				// Predicated exit branch; the internal fall edge either
				// inherits (no define) or contributes an OR~ define placed
				// before the branch.
				if p2.Type != ir.PredNone {
					out = append(out, &ir.Instr{Op: ir.PredDef, Cmp: cmp,
						P2: p2, A: term.A, B: term.B, Guard: guard})
				}
				term.Guard = guard
				out = append(out, term)
			default: // both external
				term.Guard = guard
				out = append(out, term)
				out = append(out, &ir.Instr{Op: ir.Jump, Target: ab.Fall, Guard: guard})
			}
		case term != nil && term.Op == ir.Jump:
			if inS(term.Target) {
				if d != nil && d.uncondTarget != ir.PNone {
					out = append(out, alwaysDef(d.uncondTarget, guard))
				}
			} else {
				term.Guard = guard
				out = append(out, term)
			}
		case term == nil:
			if inS(ab.Fall) {
				if d != nil && d.uncondTarget != ir.PNone {
					out = append(out, alwaysDef(d.uncondTarget, guard))
				}
			} else {
				out = append(out, &ir.Instr{Op: ir.Jump, Target: ab.Fall, Guard: guard})
			}
		default:
			return fmt.Errorf("hyperblock: if-converting seed B%d of %s: unexpected terminator %s in B%d (selection must exclude calls and returns)", seed, f.Name, term, aid)
		}
	}

	// The final exit is taken whenever control reaches it (block predicates
	// partition execution), so its guard can be dropped, sealing the block.
	last := out[len(out)-1]
	if last.Op != ir.Jump {
		return fmt.Errorf("hyperblock: if-converting seed B%d of %s: expected trailing exit jump, got %s", seed, f.Name, last)
	}
	last.Guard = ir.PNone

	head := f.Blocks[seed]
	head.Instrs = out
	head.Fall = -1
	patch := []int{seed}
	for id := range sel {
		if id != seed {
			f.Blocks[id].Dead = true
			f.Blocks[id].Instrs = nil
			patch = append(patch, id)
		}
	}
	g.Patch(patch...)
	return nil
}

// regionDoms computes immediate dominators over the selection, whose
// blocks are listed in topological order from the seed.  Every
// predecessor of a non-seed block is selected (side entrances are gone)
// and edges into the seed are back edges, so one pass in that order
// settles every block, and each non-seed block's immediate dominator is
// the same as over the whole function: any path into the selection enters
// through the seed.  The seed maps to itself.
func regionDoms(g *cfg.Graph, seed int, order []int) map[int]int {
	pos := make(map[int]int, len(order))
	for i, id := range order {
		pos[id] = i
	}
	idom := make(map[int]int, len(order))
	idom[seed] = seed
	for _, id := range order[1:] {
		d := -1
		for _, p := range g.Preds[id] {
			if d < 0 {
				d = p
				continue
			}
			for a := p; a != d; {
				for pos[a] > pos[d] {
					a = idom[a]
				}
				for pos[d] > pos[a] {
					d = idom[d]
				}
			}
		}
		idom[id] = d
	}
	return idom
}

// alwaysDef builds an OR-type predicate define that sets p whenever the
// guard is true (an unconditional edge into a join block): pred_eq
// p_OR, 0, 0 (guard).
func alwaysDef(p ir.PReg, guard ir.PReg) *ir.Instr {
	return &ir.Instr{Op: ir.PredDef, Cmp: ir.EQ,
		P1: ir.PredDest{P: p, Type: ir.PredOR},
		A:  ir.Imm(0), B: ir.Imm(0), Guard: guard}
}

// regionPostdoms computes immediate post-dominators over the selected
// region's internal subgraph (edges to unselected blocks or back to the
// seed are ignored; blocks without internal successors post-dominate to a
// virtual exit, represented by -1).  The returned map holds each block's
// immediate post-dominator (-1 for virtual exit).
func regionPostdoms(f *ir.Func, sel map[int]bool, seed int, order []int) map[int]int {
	succs := map[int][]int{}
	for _, aid := range order {
		b := f.Blocks[aid]
		for _, s := range b.Succs(nil) {
			if s != seed && sel[s] {
				succs[aid] = append(succs[aid], s)
			}
		}
	}
	// Iterative ipdom over reverse topological order; virtual exit = -1.
	ipdom := map[int]int{}
	const unset = -2
	for _, id := range order {
		ipdom[id] = unset
	}
	// Post-dominator chains move toward higher topological positions (the
	// virtual exit), so intersection advances the node that is earlier.
	intersect := func(a, b int, pos map[int]int) int {
		for a != b {
			if a == -1 || b == -1 {
				return -1
			}
			for a != -1 && pos[a] < pos[b] {
				a = ipdom[a]
			}
			if a == -1 {
				return -1
			}
			for b != -1 && pos[b] < pos[a] {
				b = ipdom[b]
			}
			if b == -1 {
				return -1
			}
		}
		return a
	}
	pos := map[int]int{}
	for i, id := range order {
		pos[id] = i
	}
	for changed := true; changed; {
		changed = false
		for i := len(order) - 1; i >= 0; i-- {
			id := order[i]
			ss := succs[id]
			var nd int
			if len(ss) == 0 {
				nd = -1
			} else {
				nd = unset
				for _, s := range ss {
					if ipdom[s] == unset && len(succs[s]) != 0 {
						// Successor not yet resolved; but reverse topo
						// order guarantees successors come first.
					}
					if nd == unset {
						nd = s
					} else {
						nd = intersect(nd, s, pos)
					}
				}
			}
			if nd != unset && ipdom[id] != nd {
				ipdom[id] = nd
				changed = true
			}
		}
	}
	return ipdom
}

// regionPostdominates reports whether b post-dominates a in the region's
// internal subgraph: a's post-dominator chain reaches b before the virtual
// exit.
func regionPostdominates(ipdom map[int]int, b, a int) bool {
	for x := a; ; {
		nx, ok := ipdom[x]
		if !ok || nx == -1 || nx == -2 {
			return false
		}
		if nx == b {
			return true
		}
		x = nx
	}
}
