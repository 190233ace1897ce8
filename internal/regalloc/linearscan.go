package regalloc

import (
	"fmt"
	"sort"

	"predication/internal/cfg"
	"predication/internal/ir"
)

// Result reports what allocation did.
type Result struct {
	// Spilled counts virtual registers assigned to memory slots.
	Spilled int
	// SlotWords is the spill memory appended to the program.
	SlotWords int
	// MaxPhys is the highest physical register number actually used.
	MaxPhys int
}

// scratch registers reserved from the physical file for spill code: up to
// three sources may need reloading (select, store) and one definition
// needs a home.
const numScratch = 4

// Allocate maps every function's virtual registers onto a physical file of
// numRegs registers using linear scan (Poletto/Sarkar), spilling excess
// live ranges to memory slots appended after the program's data.  The
// rewrite preserves predication: spill stores after a guarded definition
// carry the same guard, so a nullified instruction leaves its spill slot
// untouched.
//
// Predicate registers are architectural (the paper's predicate register
// file) and are not allocated.  Functions must not recurse: spill slots
// are statically assigned per function, matching the benchmark suite and
// the paper's compilation model.
func Allocate(p *ir.Program, numRegs int) (*Result, error) {
	if numRegs < numScratch+2 {
		return nil, fmt.Errorf("regalloc: need at least %d registers", numScratch+2)
	}
	res := &Result{}
	for _, f := range p.Funcs {
		if err := allocateFunc(p, f, numRegs, res); err != nil {
			return nil, fmt.Errorf("regalloc: %s: %w", f.Name, err)
		}
	}
	return res, nil
}

// interval is a live range over linearized positions.
type interval struct {
	v          ir.Reg
	start, end int
	phys       ir.Reg // assigned physical register (0 = spilled)
	slot       int64  // spill slot address when phys == 0
}

func allocateFunc(p *ir.Program, f *ir.Func, numRegs int, res *Result) error {
	g := cfg.NewGraph(f)
	lv := cfg.ComputeLiveness(g)

	// Linearize live blocks and compute intervals.
	blocks := f.LiveBlocks(nil)
	pos := 0
	starts := map[int]int{} // block ID -> start position
	ends := map[int]int{}
	for _, b := range blocks {
		starts[b.ID] = pos
		pos += len(b.Instrs) + 1
		ends[b.ID] = pos - 1
	}
	iv := map[ir.Reg]*interval{}
	touch := func(v ir.Reg, at int) {
		if v == ir.RNone {
			return
		}
		it := iv[v]
		if it == nil {
			it = &interval{v: v, start: at, end: at}
			iv[v] = it
			return
		}
		if at < it.start {
			it.start = at
		}
		if at > it.end {
			it.end = at
		}
	}
	var srcBuf [4]ir.Reg
	for _, b := range blocks {
		if !g.Reachable(b.ID) {
			continue
		}
		for _, v := range lv.Regs() {
			if lv.RegLiveIn(b.ID, v) {
				touch(v, starts[b.ID])
			}
			if lv.RegLiveOut(b.ID, v) {
				touch(v, ends[b.ID])
			}
		}
		at := starts[b.ID]
		for _, in := range b.Instrs {
			at++
			for _, s := range in.SrcRegs(srcBuf[:0]) {
				touch(s, at)
			}
			touch(in.DefReg(), at)
		}
	}

	intervals := make([]*interval, 0, len(iv))
	for _, it := range iv {
		intervals = append(intervals, it)
	}
	sort.Slice(intervals, func(i, j int) bool {
		if intervals[i].start != intervals[j].start {
			return intervals[i].start < intervals[j].start
		}
		return intervals[i].v < intervals[j].v
	})

	// Linear scan with furthest-end spilling.  Physical registers 1..K
	// are allocatable; the top numScratch registers are reserved.
	avail := numRegs - numScratch
	free := make([]ir.Reg, 0, avail)
	for r := avail; r >= 1; r-- {
		free = append(free, ir.Reg(r))
	}
	var active []*interval // sorted by end
	insertActive := func(it *interval) {
		i := sort.Search(len(active), func(i int) bool { return active[i].end > it.end })
		active = append(active, nil)
		copy(active[i+1:], active[i:])
		active[i] = it
	}
	nextSlot := int64(p.MemWords) + int64(res.SlotWords)
	spill := func(it *interval) {
		it.phys = 0
		it.slot = nextSlot
		nextSlot++
		res.SlotWords++
		res.Spilled++
	}
	for _, it := range intervals {
		// Expire finished intervals.
		n := 0
		for _, a := range active {
			if a.end >= it.start {
				active[n] = a
				n++
			} else {
				free = append(free, a.phys)
			}
		}
		active = active[:n]
		if len(free) > 0 {
			it.phys = free[len(free)-1]
			free = free[:len(free)-1]
			if int(it.phys) > res.MaxPhys {
				res.MaxPhys = int(it.phys)
			}
			insertActive(it)
			continue
		}
		// Spill the interval that ends furthest away.
		last := active[len(active)-1]
		if last.end > it.end {
			it.phys = last.phys
			spill(last)
			active = active[:len(active)-1]
			insertActive(it)
		} else {
			spill(it)
		}
	}

	// Rewrite instructions.
	scratchBase := ir.Reg(numRegs - numScratch + 1)
	if n := numRegs; n > res.MaxPhys && res.Spilled > 0 {
		res.MaxPhys = numRegs // scratch registers in use
	}
	for _, b := range blocks {
		var out []*ir.Instr
		for _, in := range b.Instrs {
			nextScratch := scratchBase
			takeScratch := func() ir.Reg {
				r := nextScratch
				nextScratch++
				if nextScratch > ir.Reg(numRegs)+1 {
					panic(fmt.Sprintf("regalloc: instruction needs more than %d scratch registers (numRegs %d)", numScratch, numRegs))
				}
				return r
			}
			mapUse := func(o *ir.Operand) {
				if !o.IsReg() {
					return
				}
				it := iv[o.R]
				if it == nil {
					return
				}
				if it.phys != 0 {
					o.R = it.phys
					return
				}
				s := takeScratch()
				out = append(out, ir.NewInstr(ir.Load, s, ir.Imm(0), ir.Imm(it.slot)))
				o.R = s
			}
			// CMov/CMovCom read their destination: reload it first so the
			// conditional write sees the current value.
			var dstIt *interval
			if d := in.DefReg(); d != ir.RNone {
				dstIt = iv[d]
			}
			if in.ConditionalDef() && dstIt != nil && dstIt.phys == 0 {
				s := takeScratch()
				out = append(out, ir.NewInstr(ir.Load, s, ir.Imm(0), ir.Imm(dstIt.slot)))
				mapUse(&in.A)
				mapUse(&in.B)
				mapUse(&in.C)
				in.Dst = s
				out = append(out, in)
				st := ir.NewInstr(ir.Store, ir.RNone, ir.Imm(0), ir.Imm(dstIt.slot), ir.R(s))
				st.Guard = in.Guard
				out = append(out, st)
				continue
			}
			mapUse(&in.A)
			mapUse(&in.B)
			mapUse(&in.C)
			if dstIt != nil {
				if dstIt.phys != 0 {
					in.Dst = dstIt.phys
				} else {
					s := takeScratch()
					in.Dst = s
					out = append(out, in)
					st := ir.NewInstr(ir.Store, ir.RNone, ir.Imm(0), ir.Imm(dstIt.slot), ir.R(s))
					// A guarded definition writes only when its predicate
					// holds; so must its spill store.
					st.Guard = in.Guard
					out = append(out, st)
					continue
				}
			}
			out = append(out, in)
		}
		b.Instrs = out
	}
	f.NextReg = ir.Reg(numRegs) + 1
	return nil
}

// GrowMemory extends the program's memory to cover the allocated spill
// slots.  Call once after Allocate.
func GrowMemory(p *ir.Program, res *Result) {
	p.MemWords += res.SlotWords
}
