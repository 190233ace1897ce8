// Package sched implements dependence analysis and list scheduling for the
// in-order k-issue target.  Scheduling reorders instructions within each
// (super/hyper)block to minimize the critical path under the machine's
// issue-width and branch-slot constraints, performing speculative code
// motion above exit branches where safe (using silent instruction
// versions), exactly the role the scheduler plays for superblocks and
// hyperblocks in the paper.
//
// The dependence builder is predicate aware: instructions guarded by
// provably disjoint predicates (the U/U-complement destinations of a single
// predicate define) carry no register or memory dependences against each
// other, which lets if-converted then/else paths issue in parallel.
package sched

import (
	"predication/internal/cfg"
	"predication/internal/ir"
	"predication/internal/machine"
)

// dep is one edge of the dependence DAG: to must issue at least lat cycles
// after from.
type dep struct {
	from, to int
	lat      int
}

// depGraph holds the DAG for one block.
type depGraph struct {
	n     int
	succs [][]int // adjacency (target indices)
	lats  [][]int
	npred []int
}

func (g *depGraph) add(from, to, lat int) {
	if from == to {
		return
	}
	g.succs[from] = append(g.succs[from], to)
	g.lats[from] = append(g.lats[from], lat)
	g.npred[to]++
}

// buildDeps constructs the dependence DAG for a block.  lv supplies
// liveness at branch targets for speculation decisions; specSilent records
// instructions that must become silent if hoisted above a branch.
func buildDeps(f *ir.Func, b *ir.Block, lv *cfg.Liveness, predDist int) (*depGraph, map[int][]int) {
	instrs := b.Instrs
	n := len(instrs)
	g := &depGraph{n: n,
		succs: make([][]int, n), lats: make([][]int, n), npred: make([]int, n)}
	tree := ir.BuildPredTree(instrs)
	exclusive := func(i, j int) bool {
		gi, gj := instrs[i].Guard, instrs[j].Guard
		if gi == ir.PNone || gj == ir.PNone || gi == gj {
			return false
		}
		return tree.Disjoint(gi, gj)
	}

	// Register def/use tracking.
	lastDef := map[ir.Reg][]int{}  // defs since last unconditional def
	lastUses := map[ir.Reg][]int{} // uses since last def
	// Predicate tracking.
	predDefs := map[ir.PReg][]int{}
	predUses := map[ir.PReg][]int{}
	// Memory tracking.
	var stores, loads []int
	// Control: branches seen so far; hoistBlocked[j] lists branch indices j
	// may not move above (mapped branch->instrs kept below it).
	barrier := -1 // last JSR/Ret/Halt
	var branches []int
	// speculable instructions that were permitted to bypass branch control
	// deps; they must be silent since they may hoist.
	specOver := map[int][]int{}

	memAddr := func(in *ir.Instr) (base ir.Reg, off int64, ok bool) {
		if in.A.IsReg() && in.B.IsImm {
			return in.A.R, in.B.Imm, true
		}
		return 0, 0, false
	}
	// baseVer tracks redefinitions of registers so same-base offset
	// disambiguation is sound.
	baseVer := map[ir.Reg]int{}

	type memRef struct {
		idx  int
		base ir.Reg
		ver  int
		off  int64
		ok   bool
	}
	var storeRefs, loadRefs []memRef

	mayAlias := func(a, b memRef) bool {
		if !a.ok || !b.ok {
			return true
		}
		if a.base == b.base && a.ver == b.ver {
			return a.off == b.off
		}
		return true
	}

	var srcBuf [4]ir.Reg
	for j := 0; j < n; j++ {
		in := instrs[j]

		// Barrier ordering.
		if barrier >= 0 {
			g.add(barrier, j, 0)
		}

		// Register flow and anti dependences.
		for _, s := range in.SrcRegs(srcBuf[:0]) {
			for _, i := range lastDef[s] {
				if !exclusive(i, j) {
					lat := machine.Latency(instrs[i].Op)
					g.add(i, j, lat)
				}
			}
			lastUses[s] = append(lastUses[s], j)
		}
		if d := in.DefReg(); d != ir.RNone {
			for _, i := range lastUses[d] {
				if !exclusive(i, j) {
					g.add(i, j, 0) // anti
				}
			}
			for _, i := range lastDef[d] {
				if !exclusive(i, j) {
					g.add(i, j, 1) // output
				}
			}
			if in.Guard == ir.PNone && !in.ConditionalDef() {
				lastDef[d] = lastDef[d][:0]
				lastUses[d] = lastUses[d][:0]
				baseVer[d]++
			}
			lastDef[d] = append(lastDef[d], j)
		}

		// Predicate dependences.
		if in.Guard != ir.PNone {
			for _, i := range predDefs[in.Guard] {
				g.add(i, j, predDist)
			}
			predUses[in.Guard] = append(predUses[in.Guard], j)
		}
		switch in.Op {
		case ir.PredDef:
			var pBuf [2]ir.PReg
			for k, pd := range []ir.PredDest{in.P1, in.P2} {
				_ = k
				if pd.Type == ir.PredNone {
					continue
				}
				p := pd.P
				for _, i := range predUses[p] {
					g.add(i, j, 0) // anti on predicate
				}
				// OR-type (and AND-type) deposits into the same predicate
				// commute (wired-OR, §2.1): no output ordering between them.
				commutes := pd.Type != ir.PredU && pd.Type != ir.PredUBar
				for _, i := range predDefs[p] {
					prev := instrs[i]
					prevCommutes := prev.Op == ir.PredDef && sameCommutingType(prev, p, pd.Type)
					if commutes && prevCommutes {
						continue
					}
					g.add(i, j, 1)
				}
				predDefs[p] = append(predDefs[p], j)
				_ = pBuf
			}
		case ir.PredClear, ir.PredSet:
			// Full predicate-file barrier.
			for p, us := range predUses {
				for _, i := range us {
					g.add(i, j, 0)
				}
				predUses[p] = us[:0]
			}
			for p, ds := range predDefs {
				for _, i := range ds {
					g.add(i, j, 1)
				}
				predDefs[p] = ds[:0]
			}
			// All later predicate reads depend on this.
			for _, b := range []ir.PReg{} {
				_ = b
			}
			// Record the clear as a define of every predicate that appears
			// later: approximate by tracking a sentinel.
			predDefs[ir.PNone] = append(predDefs[ir.PNone][:0], j)
		}
		// Guarded instructions also depend on a preceding clear/set.
		if in.Guard != ir.PNone || in.Op == ir.PredDef {
			for _, i := range predDefs[ir.PNone] {
				g.add(i, j, predDist)
			}
		}

		// Memory dependences.
		switch in.Op {
		case ir.Load:
			base, off, ok := memAddr(in)
			ref := memRef{j, base, baseVer[base], off, ok}
			for _, s := range storeRefs {
				if mayAlias(s, ref) && !exclusive(s.idx, j) {
					g.add(s.idx, j, 1)
				}
			}
			loadRefs = append(loadRefs, ref)
			loads = append(loads, j)
		case ir.Store:
			base, off, ok := memAddr(in)
			ref := memRef{j, base, baseVer[base], off, ok}
			for _, s := range storeRefs {
				if mayAlias(s, ref) && !exclusive(s.idx, j) {
					g.add(s.idx, j, 1)
				}
			}
			for _, l := range loadRefs {
				if mayAlias(l, ref) && !exclusive(l.idx, j) {
					g.add(l.idx, j, 0)
				}
			}
			storeRefs = append(storeRefs, ref)
			stores = append(stores, j)
		case ir.JSR:
			// Calls may read and write memory arbitrarily.
			for _, s := range stores {
				g.add(s, j, 1)
			}
			for _, l := range loads {
				g.add(l, j, 0)
			}
			stores = stores[:0]
			loads = loads[:0]
			storeRefs = storeRefs[:0]
			loadRefs = loadRefs[:0]
			stores = append(stores, j)
			loads = append(loads, j)
			storeRefs = append(storeRefs, memRef{idx: j})
			loadRefs = append(loadRefs, memRef{idx: j})
		}

		// Control dependences.
		if in.Op == ir.Halt {
			for i := 0; i < j; i++ {
				g.add(i, j, 0)
			}
			barrier = j
		} else if in.Op.IsBranch() {
			switch in.Op {
			case ir.JSR, ir.Ret, ir.Halt:
				// Full barrier both directions.
				for i := 0; i < j; i++ {
					g.add(i, j, 0)
				}
				barrier = j
			default:
				// Nothing already emitted may sink below the branch.
				for i := 0; i < j; i++ {
					g.add(i, j, 0)
				}
				branches = append(branches, j)
			}
		} else {
			// May this instruction hoist above earlier branches?  Walk the
			// branches from the most recent backwards; stop at the first
			// one it cannot cross.
			for bi := len(branches) - 1; bi >= 0; bi-- {
				br := instrs[branches[bi]]
				if !speculable(in, br, lv) {
					g.add(branches[bi], j, 0)
					break
				}
				specOver[j] = append(specOver[j], branches[bi])
			}
		}
	}
	return g, specOver
}

// sameCommutingType reports whether the define writes predicate p with an
// OR/AND-family type (deposits that commute).
func sameCommutingType(in *ir.Instr, p ir.PReg, _ ir.PredType) bool {
	for _, pd := range []ir.PredDest{in.P1, in.P2} {
		if pd.P == p && pd.Type != ir.PredNone {
			return pd.Type != ir.PredU && pd.Type != ir.PredUBar
		}
	}
	return false
}

// speculable reports whether instruction in may be hoisted above branch br:
// it must be side-effect free (silent versions cover exceptions) and its
// destination must not be live at the branch target.
func speculable(in *ir.Instr, br *ir.Instr, lv *cfg.Liveness) bool {
	switch in.Op {
	case ir.Store, ir.PredClear, ir.PredSet:
		return false
	}
	if in.Op.IsBranch() {
		return false
	}
	target := br.Target
	if !lv.Tracks(target) {
		return false
	}
	if in.Op == ir.PredDef {
		var pBuf [2]ir.PReg
		for _, p := range in.PredDefs(pBuf[:0]) {
			if lv.PredLiveIn(target, p) {
				return false
			}
		}
		return true
	}
	if d := in.DefReg(); d != ir.RNone {
		return !lv.RegLiveIn(target, d)
	}
	return false
}
