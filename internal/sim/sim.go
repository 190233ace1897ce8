// Package sim implements the trace-driven timing simulator.
//
// The simulator models the paper's processor (§4.1): an in-order k-issue
// machine with register interlocking, no restriction on the per-cycle
// instruction mix except a limit on branches, predicate suppression at the
// decode/issue stage, a 1K-entry branch target buffer with 2-bit counters
// (2-cycle misprediction penalty), and optionally 64K direct-mapped
// instruction and data caches with 64-byte blocks and a 12-cycle miss
// penalty.  It consumes the dynamic trace produced by the emulator
// (emulation-driven simulation).
//
// There is one timing engine, the Gang (gang.go): it prices one or more
// machine configurations in a single pass over the emulator's event
// batches, each lane running either the in-order pipeline or the
// out-of-order issue window (ooo.go).  Simulator is a one-lane gang.
package sim

import (
	"predication/internal/emu"
	"predication/internal/ir"
	"predication/internal/machine"
	"predication/internal/obs"
)

// Stats aggregates the outcome of one simulation.
type Stats struct {
	Cycles       int64 `json:"cycles"`
	Instrs       int64 `json:"instrs"`    // dynamic instructions fetched (incl. nullified)
	Nullified    int64 `json:"nullified"` // predicated instructions suppressed by their guard
	Branches     int64 `json:"branches"`  // control-transfer instructions executed
	CondBranches int64 `json:"cond_branches"`
	Mispredicts  int64 `json:"mispredicts"`
	ICacheMisses int64 `json:"icache_misses"`
	DCacheMisses int64 `json:"dcache_misses"`
	Loads        int64 `json:"loads"`
	Stores       int64 `json:"stores"`
}

// IPC returns dynamic instructions per cycle, counting nullified
// instructions: they were fetched and consumed issue bandwidth.
func (s Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Instrs) / float64(s.Cycles)
}

// UsefulIPC returns non-nullified instructions per cycle.  Fetched IPC
// alone overstates full-predication throughput — a nullified instruction
// contributes fetch traffic, not work — which is exactly the paper's §4.2
// caveat; reports show both.
func (s Stats) UsefulIPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Instrs-s.Nullified) / float64(s.Cycles)
}

// MispredictRate returns the fraction of executed conditional branches that
// mispredicted.
func (s Stats) MispredictRate() float64 {
	if s.CondBranches == 0 {
		return 0
	}
	return float64(s.Mispredicts) / float64(s.CondBranches)
}

// btb is a direct-mapped branch target buffer with 2-bit saturating
// counters.  Empty entries hold the tag -1, which no code address ever
// matches, so no separate valid bit is consulted on the hot path.
type btb struct {
	tags []int32
	ctr  []uint8
	mask int32
}

func newBTB(entries int) *btb {
	b := &btb{
		tags: make([]int32, entries),
		ctr:  make([]uint8, entries),
		mask: int32(entries - 1),
	}
	for i := range b.tags {
		b.tags[i] = -1
	}
	return b
}

// predict returns the predicted direction for the conditional branch at pc.
// An untracked branch is predicted not-taken.
func (b *btb) predict(pc int32) bool {
	i := (pc / ir.InstrBytes) & b.mask
	return b.tags[i] == pc && b.ctr[i] >= 2
}

// update trains the predictor with the branch outcome.
func (b *btb) update(pc int32, taken bool) {
	i := (pc / ir.InstrBytes) & b.mask
	if b.tags[i] != pc {
		if !taken {
			return // no-allocate on not-taken misses
		}
		b.tags[i] = pc
		b.ctr[i] = 2
		return
	}
	if taken {
		if b.ctr[i] < 3 {
			b.ctr[i]++
		}
	} else if b.ctr[i] > 0 {
		b.ctr[i]--
	}
}

// cache is a direct-mapped cache tracking only hit/miss (timing, not
// data).  Empty lines hold the tag -1; block numbers are non-negative
// (addresses are), so no separate valid bit is consulted per access.
// last memoizes the most recent block known to be resident: tags only
// change through allocation, which re-points last at the new block, so a
// repeat access to last (the common sequential-fetch case) can hit
// without touching the tag array.
type cache struct {
	tags     []int64
	last     int64
	mask     int64
	blkShift uint
}

func newCache(cfg machine.CacheConfig) *cache {
	lines := cfg.Lines()
	shift := uint(0)
	for 1<<shift < cfg.BlockSize {
		shift++
	}
	c := &cache{
		tags:     make([]int64, lines),
		last:     -1,
		mask:     int64(lines - 1),
		blkShift: shift,
	}
	for i := range c.tags {
		c.tags[i] = -1
	}
	return c
}

// access checks the block containing byte address addr, allocating it when
// allocate is true.  It reports whether the access hit.
func (c *cache) access(addr int64, allocate bool) bool {
	blk := addr >> c.blkShift
	if blk == c.last {
		return true
	}
	i := blk & c.mask
	if c.tags[i] == blk {
		c.last = blk
		return true
	}
	if allocate {
		c.tags[i] = blk
		c.last = blk
	}
	return false
}

// simInstr is the pre-decoded per-static-instruction state the timing
// model needs: source/destination readiness indices already folded with
// the function's base offset, latency, code address, and classification
// flags.  It is built once per gang and indexed by Event.ID, so the
// per-event path does no map lookup and no ir.Instr interrogation.
type simInstr struct {
	lat            int64
	srcs           [3]int32 // global regReady indices
	pd             [2]int32 // global predReady indices written by PredDef
	predLo, predHi int32    // predReady range of the owning function
	dst            int32    // global regReady index, -1 = none
	guard          int32    // global predReady index, -1 = unguarded
	addr           int32    // code byte address (icache, predictor)
	nsrc, npd      uint8
	flags          uint8
	class          uint8 // obs.InstrClass for the instruction-mix histograms
}

// simInstr classification flags.
const (
	sfBranch uint8 = 1 << iota // any control transfer
	sfCond                     // dynamically conditional (predicted by the BTB)
	sfLoad
	sfStore
	sfPredDef
	sfPredAll // PredClear / PredSet: broadcast over the function's predicates
)

// decodeInstrs builds the per-instruction table in layout order, so that
// position i describes the instruction with Event.ID == i.
func decodeInstrs(p *ir.Program, regBase, predBase []int32, nPreds int32) []simInstr {
	code := make([]simInstr, 0, p.NumInstrs())
	p.ForEachInstr(func(fi int, in *ir.Instr) {
		d := simInstr{
			dst:   -1,
			guard: -1,
			addr:  in.Addr,
			lat:   int64(machine.Latency(in.Op)),
			class: uint8(obs.ClassOf(in.Op)),
		}
		if in.Guard != ir.PNone {
			d.guard = predBase[fi] + int32(in.Guard)
		}
		var srcBuf [4]ir.Reg
		for _, src := range in.SrcRegs(srcBuf[:0]) {
			d.srcs[d.nsrc] = regBase[fi] + int32(src)
			d.nsrc++
		}
		if r := in.DefReg(); r != ir.RNone {
			d.dst = regBase[fi] + int32(r)
		}
		switch in.Op {
		case ir.Load:
			d.flags |= sfLoad
		case ir.Store:
			d.flags |= sfStore
		case ir.PredDef:
			d.flags |= sfPredDef
			var pBuf [2]ir.PReg
			for _, pr := range in.PredDefs(pBuf[:0]) {
				d.pd[d.npd] = predBase[fi] + int32(pr)
				d.npd++
			}
		case ir.PredClear, ir.PredSet:
			d.flags |= sfPredAll
			d.predLo = predBase[fi]
			if fi+1 < len(predBase) {
				d.predHi = predBase[fi+1]
			} else {
				d.predHi = nPreds
			}
		}
		if in.Op.IsBranch() {
			d.flags |= sfBranch
		}
		if in.Op.IsCondBranch() || (in.Op == ir.Jump && in.Guard != ir.PNone) {
			d.flags |= sfCond
		}
		code = append(code, d)
	})
	return code
}

// Simulator is the single-configuration form of the timing engine: a
// one-lane Gang.  It implements emu.BatchSink, so it is passed to the
// emulator as its sink and consumes the dynamic instruction stream while
// the emulator produces it; read the totals with Stats.
// State is O(static program size) — readiness arrays, pre-decoded
// instruction table, predictor, caches — independent of trace length, so a
// run never materializes the trace.
type Simulator struct{ g *Gang }

// NewTiming creates the timing model for one machine configuration: the
// in-order pipeline, or the issue-window scheduler when cfg.OoO is set.
// Like NewGang, it requires assigned code addresses and panics when the
// configuration fails machine.Config.Validate.
func NewTiming(p *ir.Program, cfg machine.Config) *Simulator {
	return &Simulator{NewGang(p, []machine.Config{cfg})}
}

// EventBatch implements emu.BatchSink.
func (s *Simulator) EventBatch(evs []emu.Event) { s.g.EventBatch(evs) }

// Stats returns the statistics accumulated so far (see Gang.Stats).
func (s *Simulator) Stats() Stats { return s.g.Stats(0) }

// Instrument attaches a cycle account (see Gang.Instrument).
func (s *Simulator) Instrument(a *obs.CycleAccount) { s.g.Instrument(0, a) }

// regIndex assigns each function a base offset into program-wide register
// and predicate readiness arrays.
func regIndex(p *ir.Program) (regBase, predBase []int32, nRegs, nPreds int32) {
	regBase = make([]int32, len(p.Funcs))
	predBase = make([]int32, len(p.Funcs))
	for i, f := range p.Funcs {
		regBase[i] = nRegs
		predBase[i] = nPreds
		nRegs += int32(f.NextReg)
		nPreds += int32(f.NextPReg)
	}
	return
}
