package cfg

import "predication/internal/ir"

// BitSet is a dense bit set over small integers.
type BitSet []uint64

// NewBitSet creates a bit set able to hold values in [0, n).
func NewBitSet(n int) BitSet { return make(BitSet, (n+63)/64) }

// Set adds i to the set.
func (s BitSet) Set(i int32) { s[i/64] |= 1 << (uint(i) % 64) }

// Clear removes i from the set.
func (s BitSet) Clear(i int32) { s[i/64] &^= 1 << (uint(i) % 64) }

// Has reports whether i is in the set.
func (s BitSet) Has(i int32) bool { return s[i/64]&(1<<(uint(i)%64)) != 0 }

// OrWith unions other into s, reporting whether s changed.
func (s BitSet) OrWith(other BitSet) bool {
	changed := false
	for i, w := range other {
		if s[i]|w != s[i] {
			s[i] |= w
			changed = true
		}
	}
	return changed
}

// Liveness holds per-block live-in/live-out sets for integer/FP registers
// and for predicate registers.
//
// Predicated definitions do not kill: an instruction guarded by a predicate
// may not execute, so the prior value of its destination can flow through.
// CMov and CMovCom likewise read their destination (conditional write).
//
// A register can be live at a block boundary only if some block reads it
// before writing it unconditionally (it is upward-exposed there): every
// live-in bit starts at such a read.  Formation leaves thousands of
// registers that live inside one block, so the sets range over the
// upward-exposed registers and predicates alone — registers first, then
// predicates, each in ascending order — and the query methods translate.
// Unreachable live blocks keep empty sets; blocks dead at computation time
// have none.
type Liveness struct {
	G *Graph

	regs   []ir.Reg  // index -> register
	preds  []ir.PReg // index-len(regs) -> predicate
	regIx  []int32   // register -> index, -1 if never live across blocks
	predIx []int32   // predicate -> index, likewise
	in     []BitSet  // block ID -> live-in set
	out    []BitSet  // block ID -> live-out set
}

// transfer is one block's liveness transfer function in the index space,
// folded from its instructions so the fixpoint iteration never rereads
// them: a register is live on entry when the block reads it first (gen),
// when it is live out and the block never kills it (pass), or when it is
// live into the target of an exit branch and no instruction before the
// branch kills it.
type transfer struct {
	gen, pass BitSet
	exits     []exitPass
}

type exitPass struct {
	target int
	pass   BitSet
}

// ComputeLiveness runs iterative backward liveness over the function.
//
// All per-block sets, transfer masks and scratch sets are carved out of a
// single backing array: the pass runs after every mutating transformation,
// so per-set allocations would dominate its cost.
func ComputeLiveness(g *Graph) *Liveness {
	f := g.F
	n := len(f.Blocks)
	rpo := g.RPO()
	lv := &Liveness{G: g,
		regIx: make([]int32, f.NextReg), predIx: make([]int32, f.NextPReg),
		in: make([]BitSet, n), out: make([]BitSet, n)}
	live, exits := lv.number(rpo)
	w := (len(lv.regs) + len(lv.preds) + 63) / 64
	backing := make([]uint64, (4*live+exits+2)*w)
	carve := func() BitSet {
		s := BitSet(backing[:w:w])
		backing = backing[w:]
		return s
	}
	for _, b := range f.Blocks {
		if b != nil && !b.Dead {
			lv.in[b.ID], lv.out[b.ID] = carve(), carve()
		}
	}
	// The kill of an unguarded pred_clear or pred_set: every predicate.
	allPreds := carve()
	for i := range lv.preds {
		allPreds.Set(int32(len(lv.regs) + i))
	}
	tf := make([]transfer, len(rpo)) // by RPO position
	pool := make([]exitPass, 0, exits)
	for i, id := range rpo {
		if lv.in[id] != nil {
			start := len(pool)
			tf[i], pool = lv.fold(f.Blocks[id].Instrs, carve(), carve(), carve, allPreds, pool)
			tf[i].exits = pool[start:len(pool):len(pool)]
		}
	}
	cur := carve()
	for changed := true; changed; {
		changed = false
		// Iterate blocks in reverse RPO for fast convergence.
		for i := len(rpo) - 1; i >= 0; i-- {
			id := rpo[i]
			if lv.in[id] == nil {
				continue // dead, reachable only via a stray edge; no sets
			}
			out := lv.out[id]
			for _, s := range g.Succs[id] {
				if out.OrWith(lv.in[s]) {
					changed = true
				}
			}
			t := &tf[i]
			for k := range cur {
				cur[k] = t.gen[k] | out[k]&t.pass[k]
			}
			for _, e := range t.exits {
				for k, x := range lv.in[e.target] {
					cur[k] |= x & e.pass[k]
				}
			}
			if lv.in[id].OrWith(cur) {
				changed = true
			}
		}
	}
	return lv
}

// number indexes the registers and predicates upward-exposed in some
// block of rpo, and counts the live blocks and the exit branches the
// transfer functions of rpo's blocks need.  A forward walk per block stamps each
// unconditional write, so a read is upward-exposed when its register
// carries no stamp of the current block.  Reads happen before writes
// within one instruction, and the writes that count are exactly the kills
// fold honours.
func (lv *Liveness) number(rpo []int) (live, exits int) {
	f := lv.G.F
	for _, b := range f.Blocks {
		if b != nil && !b.Dead {
			live++
		}
	}
	rstamp := make([]int32, len(lv.regIx))
	pstamp := make([]int32, len(lv.predIx))
	// The index arrays double as membership marks until numbering.
	var srcBuf [4]ir.Reg
	for i, id := range rpo {
		b := f.Blocks[id]
		if b == nil || b.Dead {
			continue
		}
		stamp := int32(i + 1)
		predsCleared := false
		readPred := func(p ir.PReg) {
			if !predsCleared && pstamp[p] != stamp {
				lv.predIx[p] = 1
			}
		}
		for _, in := range b.Instrs {
			if isJumpOrBranch(in.Op) {
				exits++
			}
			for _, s := range in.SrcRegs(srcBuf[:0]) {
				if rstamp[s] != stamp {
					lv.regIx[s] = 1
				}
			}
			if in.Guard != ir.PNone {
				readPred(in.Guard)
			}
			if in.Op == ir.PredDef {
				for _, pd := range [2]ir.PredDest{in.P1, in.P2} {
					if readsPrior(pd) {
						readPred(pd.P)
					}
				}
			}
			if in.Guard != ir.PNone {
				continue
			}
			if d := in.DefReg(); d != ir.RNone && !in.ConditionalDef() {
				rstamp[d] = stamp
			}
			switch in.Op {
			case ir.PredDef:
				for _, pd := range [2]ir.PredDest{in.P1, in.P2} {
					if pd.Type == ir.PredU || pd.Type == ir.PredUBar {
						pstamp[pd.P] = stamp
					}
				}
			case ir.PredClear, ir.PredSet:
				predsCleared = true
			}
		}
	}
	for r, mark := range lv.regIx {
		lv.regIx[r] = -1
		if mark != 0 {
			lv.regIx[r] = int32(len(lv.regs))
			lv.regs = append(lv.regs, ir.Reg(r))
		}
	}
	for p, mark := range lv.predIx {
		lv.predIx[p] = -1
		if mark != 0 {
			lv.predIx[p] = int32(len(lv.regs) + len(lv.preds))
			lv.preds = append(lv.preds, ir.PReg(p))
		}
	}
	return live, exits
}

// fold builds a block's transfer function, walking it forward with the
// set of indexed registers killed so far.  Superblocks and hyperblocks
// contain mid-block exit branches: control may leave at each one, so the
// target's live-ins reach the block entry unless an earlier instruction
// kills them.  Registers outside the index are skipped: each is written
// before it is read in every block that reads it, so none reaches the
// block entry.  gen and killed arrive empty; killed ends up holding the
// kills of the whole block, and its complement becomes pass.  The exits
// are appended to pool, which is returned.
func (lv *Liveness) fold(instrs []*ir.Instr, gen, killed BitSet, carve func() BitSet, allPreds BitSet, pool []exitPass) (transfer, []exitPass) {
	t := transfer{gen: gen}
	read := func(x int32) {
		if x >= 0 && !killed.Has(x) {
			gen.Set(x)
		}
	}
	var srcBuf [4]ir.Reg
	for _, in := range instrs {
		if isJumpOrBranch(in.Op) && lv.Tracks(in.Target) {
			pass := carve()
			for k, x := range killed {
				pass[k] = ^x
			}
			pool = append(pool, exitPass{in.Target, pass})
		}
		for _, s := range in.SrcRegs(srcBuf[:0]) {
			read(lv.regIx[s])
		}
		if in.Guard != ir.PNone {
			read(lv.predIx[in.Guard])
		}
		if in.Op == ir.PredDef {
			for _, pd := range [2]ir.PredDest{in.P1, in.P2} {
				if readsPrior(pd) {
					read(lv.predIx[pd.P])
				}
			}
		}
		// A guarded or conditional definition may not execute, so it
		// does not kill the incoming value; of a define's destinations
		// only the unconditional types always write.
		if in.Guard != ir.PNone {
			continue
		}
		if d := in.DefReg(); d != ir.RNone && !in.ConditionalDef() {
			if x := lv.regIx[d]; x >= 0 {
				killed.Set(x)
			}
		}
		switch in.Op {
		case ir.PredDef:
			for _, pd := range [2]ir.PredDest{in.P1, in.P2} {
				if x := lv.predIx[pd.P]; x >= 0 && (pd.Type == ir.PredU || pd.Type == ir.PredUBar) {
					killed.Set(x)
				}
			}
		case ir.PredClear, ir.PredSet:
			killed.OrWith(allPreds)
		}
	}
	for k, x := range killed {
		killed[k] = ^x
	}
	t.pass = killed
	return t, pool
}

// isJumpOrBranch reports whether the opcode transfers control to a block
// of the same function.
func isJumpOrBranch(op ir.Op) bool {
	switch op {
	case ir.Jump, ir.BrEQ, ir.BrNE, ir.BrLT, ir.BrLE, ir.BrGT, ir.BrGE:
		return true
	}
	return false
}

// readsPrior reports whether a predicate destination reads the prior value
// of its register: every type but the unconditional ones deposits into it.
func readsPrior(pd ir.PredDest) bool {
	return pd.Type != ir.PredNone && pd.Type != ir.PredU && pd.Type != ir.PredUBar
}

// index returns the set index of a register or predicate, or -1 when it
// has none (including one created after the computation).
func index[R ir.Reg | ir.PReg](ix []int32, r R) int32 {
	if int(r) < len(ix) {
		return ix[r]
	}
	return -1
}

// has reports whether the block's set holds index x (-1 for none).
func has(sets []BitSet, id int, x int32) bool {
	return x >= 0 && id >= 0 && id < len(sets) && sets[id] != nil && sets[id].Has(x)
}

// Tracks reports whether the block had live sets when they were computed
// (it existed and was not dead); every query about another block answers
// false.
func (lv *Liveness) Tracks(id int) bool {
	return id >= 0 && id < len(lv.in) && lv.in[id] != nil
}

// RegLiveIn reports whether register r is live on entry to block id.
func (lv *Liveness) RegLiveIn(id int, r ir.Reg) bool { return has(lv.in, id, index(lv.regIx, r)) }

// RegLiveOut reports whether register r is live on exit from block id.
func (lv *Liveness) RegLiveOut(id int, r ir.Reg) bool { return has(lv.out, id, index(lv.regIx, r)) }

// PredLiveIn reports whether predicate p is live on entry to block id.
func (lv *Liveness) PredLiveIn(id int, p ir.PReg) bool { return has(lv.in, id, index(lv.predIx, p)) }

// Regs lists, in ascending order, the registers that may be live at some
// block boundary; no other register is live into or out of any block.
func (lv *Liveness) Regs() []ir.Reg { return lv.regs }

// Walker tracks exactly which registers and predicates are live at each
// point of a backward walk over one block, for passes that apply their own
// transfer function instruction by instruction (dead-code elimination,
// register pressure).  Indexed registers and predicates live in one
// compact set, so merging a mid-block exit's live-ins costs a word or two;
// the rest, which are live only inside one block, use dense per-function
// sets that Start clears word by word as they were dirtied.
type Walker struct {
	lv                    *Liveness
	live                  BitSet // indexed registers and predicates
	localRegs, localPreds BitSet // the others, by number
	dirtyRegs, dirtyPreds []int  // words of the local sets written since Start
	nLocalRegs            int    // members of localRegs
	nLocalPreds           int    // members of localPreds
}

// Walker returns a walker over this liveness; Start positions it.
func (lv *Liveness) Walker() *Walker {
	f := lv.G.F
	return &Walker{lv: lv, live: NewBitSet(len(lv.regs) + len(lv.preds)),
		localRegs: NewBitSet(int(f.NextReg)), localPreds: NewBitSet(int(f.NextPReg))}
}

// Start positions the walk at the end of block id: exactly its live-out
// registers and predicates are live.
func (w *Walker) Start(id int) {
	clear(w.live)
	if w.lv.Tracks(id) {
		copy(w.live, w.lv.out[id])
	}
	for _, i := range w.dirtyRegs {
		w.localRegs[i] = 0
	}
	for _, i := range w.dirtyPreds {
		w.localPreds[i] = 0
	}
	w.dirtyRegs, w.dirtyPreds = w.dirtyRegs[:0], w.dirtyPreds[:0]
	w.nLocalRegs, w.nLocalPreds = 0, 0
}

// Exit makes the live-ins of block target live: control may leave the
// walked block there.
func (w *Walker) Exit(target int) {
	if w.lv.Tracks(target) {
		w.live.OrWith(w.lv.in[target])
	}
}

// HasReg reports whether register r is live at the current point.
func (w *Walker) HasReg(r ir.Reg) bool {
	if x := w.lv.regIx[r]; x >= 0 {
		return w.live.Has(x)
	}
	return w.localRegs.Has(int32(r))
}

// SetReg makes register r live (a read).
func (w *Walker) SetReg(r ir.Reg) {
	if x := w.lv.regIx[r]; x >= 0 {
		w.live.Set(x)
	} else {
		w.nLocalRegs += setLocal(w.localRegs, &w.dirtyRegs, int32(r))
	}
}

// KillReg makes register r dead (an unconditional write).
func (w *Walker) KillReg(r ir.Reg) {
	if x := w.lv.regIx[r]; x >= 0 {
		w.live.Clear(x)
	} else if w.localRegs.Has(int32(r)) {
		w.localRegs.Clear(int32(r))
		w.nLocalRegs--
	}
}

// HasPred reports whether predicate p is live at the current point.
func (w *Walker) HasPred(p ir.PReg) bool {
	if x := w.lv.predIx[p]; x >= 0 {
		return w.live.Has(x)
	}
	return w.localPreds.Has(int32(p))
}

// SetPred makes predicate p live.
func (w *Walker) SetPred(p ir.PReg) {
	if x := w.lv.predIx[p]; x >= 0 {
		w.live.Set(x)
	} else {
		w.nLocalPreds += setLocal(w.localPreds, &w.dirtyPreds, int32(p))
	}
}

// KillPred makes predicate p dead.
func (w *Walker) KillPred(p ir.PReg) {
	if x := w.lv.predIx[p]; x >= 0 {
		w.live.Clear(x)
	} else if w.localPreds.Has(int32(p)) {
		w.localPreds.Clear(int32(p))
		w.nLocalPreds--
	}
}

// NumRegs counts the live registers.
func (w *Walker) NumRegs() int { return w.count(0, len(w.lv.regs)) + w.nLocalRegs }

// NumPreds counts the live predicates.
func (w *Walker) NumPreds() int {
	nr := len(w.lv.regs)
	return w.count(nr, nr+len(w.lv.preds)) + w.nLocalPreds
}

// count returns the number of indexed members in [lo, hi).
func (w *Walker) count(lo, hi int) int {
	n := 0
	for i := lo; i < hi; i++ {
		if w.live.Has(int32(i)) {
			n++
		}
	}
	return n
}

// setLocal adds i to a local set, recording a newly written word for the
// next Start to clear, and reports whether i is a new member.
func setLocal(s BitSet, dirty *[]int, i int32) int {
	if s.Has(i) {
		return 0
	}
	if s[i/64] == 0 {
		*dirty = append(*dirty, int(i/64))
	}
	s.Set(i)
	return 1
}
