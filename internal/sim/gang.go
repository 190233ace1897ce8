package sim

import (
	"unsafe"

	"predication/internal/emu"
	"predication/internal/ir"
	"predication/internal/machine"
	"predication/internal/obs"
)

// gang.go is the timing engine: one Gang steps N machine configurations
// through the same dynamic event batch in one pass.  A single
// configuration is a one-lane gang (Simulator), so the in-order pipeline
// is exactly one loop (laneReplay) and the issue-window model exactly one
// scheduler (oooState.step, ooo.go).
//
// The design splits the per-event work by what it actually depends on:
//
//   - The pre-decoded instruction table depends only on the program, so
//     the gang builds it once and every lane indexes the same entries.
//
//   - Cache hit/miss and branch-direction outcomes depend only on the
//     event stream and the structure's geometry, never on lane timing: a
//     direct-mapped cache sees the same address sequence on every lane,
//     and a predictor trains on the same (pc, taken) sequence.  Lanes
//     sharing a geometry therefore share one tag array and one outcome,
//     computed once per event per distinct structure (a "front-end
//     class") instead of once per lane.
//
//   - Only the pipeline timing — scoreboard readiness, issue-slot
//     allocation, fetch redirects — is truly per-lane, and that state is
//     laid out struct-of-arrays: one flat config-major readiness array
//     per kind, indexed [cfg][reg], with each lane holding its own
//     stripe as a subslice view, and the same -1 sentinel-tag convention
//     as the single-config structures.
//
// The same dependency analysis applies to the statistics: every Stats
// field except Cycles is stream-pure (Instrs, Nullified, Loads, Stores,
// Branches, CondBranches) or class-pure (ICacheMisses, DCacheMisses,
// Mispredicts — functions of the shared cache or predictor outcome), so
// the front end counts them once per chunk and every lane adds the deltas
// at the chunk boundary.  The per-lane replay loops carry no counters at
// all — they are pure timing.
//
// Each batch is processed in two phases over chunks of gangChunk events:
// a shared front-end pass records per-class outcomes into reusable
// scratch rows, then each lane replays the chunk against its own
// scoreboard with the outcomes in hand.  The chunk split only exists so
// the scratch stays small and the decode-table entries the front end
// touched are still hot in cache when the last lane replays them.
//
// Lanes are fully independent, so any subset of them may carry a cycle
// account (Instrument); an uninstrumented lane skips the attribution.

// gangChunk is the phase length of the two-phase batch walk.  It matches
// the emulator's batch size, so in the steady state one EventBatch is
// exactly one chunk.
const gangChunk = 512

// Shared front-end outcome encodings, one byte per event per class.
const (
	outNone uint8 = iota // no access / not a predicted branch
	outHit               // cache hit / predicted not-taken
	outMiss              // cache miss / predicted taken
)

// gangCache is one distinct cache geometry shared by every lane that
// configures it: the tag state is identical across such lanes by
// construction, so one array and one hit/miss outcome per event serve
// them all.  Timing (the miss penalty) stays per-lane.
type gangCache struct {
	cache
	sizeBytes int
	blockSize int
}

// gangPredictor is one distinct branch-direction predictor configuration
// (kind and size).  Direction outcomes depend only on the (pc, taken)
// stream, so lanes sharing the configuration share the state and the
// per-event prediction.
type gangPredictor struct {
	tbl     *btb    // nil for gshare lanes
	gs      *gshare // nil for BTB lanes
	entries int
	isGsh   bool
}

// gangLane is the truly per-configuration state: timing scalars,
// statistics, and subslice views into the gang's config-major readiness
// arrays.  ic/dc/pr index the shared front-end classes (-1 = no cache
// modeled).
type gangLane struct {
	cfg machine.Config
	st  Stats

	regReady, predReady []int64 // stripes of the gang's flat SoA arrays

	ic, dc, pr int32

	// Scalar machine parameters, hoisted out of the nested config struct.
	predDist    int64
	icMiss      int64
	dcMiss      int64
	mispredict  int64
	takenBubble int64
	issueWidth  int
	branchSlots int

	// In-order pipeline state: the earliest issue cycle the front end
	// allows, the previous instruction's issue cycle, and the slot counts
	// of the current issue cycle.
	fetchAvail int64
	prevIssue  int64
	curCycle   int64
	slots      int
	brSlots    int

	// Cycle-accounting state, used only once Instrument attached acct: the
	// per-register data-cache-miss share of readiness, the cause of the
	// current fetchAvail redirect, and the last cycle already attributed.
	acct       *obs.CycleAccount
	regMiss    []int64
	fetchCause obs.Cause
	acctPrev   int64

	// Out-of-order lanes (cfg.OoO) replay through the window scheduler
	// instead of the in-order loop; the in-order scalars above are unused
	// for them.  The scheduler views the same regReady / predReady
	// stripes.
	ooo *oooState
}

// Gang steps several machine configurations through one dynamic
// instruction stream in a single pass.  It implements emu.BatchSink, so
// the fast emulator's 512-event batches feed every lane at once and one
// emulation serves N configurations.  Create it with NewGang, feed it as
// the emulator's sink, then read each lane's totals with Stats.
type Gang struct {
	code  []simInstr
	lanes []gangLane

	ics, dcs []gangCache
	preds    []gangPredictor

	// Per-class per-event outcome rows, gangChunk bytes each, reused
	// every chunk so the hot path never allocates.
	icOut, dcOut, prOut [][]uint8

	// Per-chunk per-class miss and mispredict counts, filled by the
	// front-end pass and added to each lane at the chunk boundary.
	icMissCnt []int64
	dcMissCnt []int64
	misprdCnt []int64
}

// NewGang creates a gang with one lane per configuration, sharing the
// program's pre-decoded instruction table across all of them.  Lane
// order follows cfgs; in-order and out-of-order configurations mix
// freely.  The program must have had code addresses assigned
// (Program.AssignAddresses): addresses are baked into the pre-decoded
// instruction table.  NewGang panics when cfgs is empty or any
// configuration fails machine.Config.Validate (a non-power-of-two BTB or
// cache geometry would silently corrupt the index masks).
func NewGang(p *ir.Program, cfgs []machine.Config) *Gang {
	if len(cfgs) == 0 {
		panic("sim: NewGang needs at least one machine configuration")
	}
	for _, cfg := range cfgs {
		if err := cfg.Validate(); err != nil {
			panic(err)
		}
	}
	regBase, predBase, nRegs, nPreds := regIndex(p)
	g := &Gang{
		code:  decodeInstrs(p, regBase, predBase, nPreds),
		lanes: make([]gangLane, len(cfgs)),
	}
	// Config-major scoreboards: one flat backing array per kind, each
	// lane viewing its own [cfg][reg] stripe (full-capacity slicing keeps
	// a lane's appends — there are none — from ever crossing stripes).
	regs := make([]int64, int(nRegs)*len(cfgs))
	preds := make([]int64, int(nPreds)*len(cfgs))
	for i := range g.lanes {
		l := &g.lanes[i]
		cfg := cfgs[i]
		l.cfg = cfg
		l.regReady = regs[i*int(nRegs) : (i+1)*int(nRegs) : (i+1)*int(nRegs)]
		l.predReady = preds[i*int(nPreds) : (i+1)*int(nPreds) : (i+1)*int(nPreds)]
		l.curCycle = -1
		l.predDist = int64(cfg.PredDist())
		l.icMiss = int64(cfg.ICache.MissCycles)
		l.dcMiss = int64(cfg.DCache.MissCycles)
		l.mispredict = int64(cfg.MispredictPenalty)
		l.takenBubble = int64(cfg.TakenBranchBubble)
		l.issueWidth = cfg.IssueWidth
		l.branchSlots = cfg.BranchSlots
		l.ic, l.dc = -1, -1
		if !cfg.PerfectCache {
			l.ic = cacheClass(&g.ics, cfg.ICache)
			l.dc = cacheClass(&g.dcs, cfg.DCache)
		}
		l.pr = g.predictorClass(cfg)
		if cfg.OoO {
			l.ooo = newOoOState(cfg, l.regReady, l.predReady)
		}
	}
	g.icOut = outcomeRows(len(g.ics))
	g.dcOut = outcomeRows(len(g.dcs))
	g.prOut = outcomeRows(len(g.preds))
	g.icMissCnt = make([]int64, len(g.ics))
	g.dcMissCnt = make([]int64, len(g.dcs))
	g.misprdCnt = make([]int64, len(g.preds))
	return g
}

// cacheClass returns the index of the class matching the geometry,
// creating it on first use.  The miss penalty is deliberately not part
// of the key: it prices the outcome per-lane, it does not change it.
func cacheClass(classes *[]gangCache, cc machine.CacheConfig) int32 {
	for i := range *classes {
		c := &(*classes)[i]
		if c.sizeBytes == cc.SizeBytes && c.blockSize == cc.BlockSize {
			return int32(i)
		}
	}
	*classes = append(*classes, gangCache{
		cache: *newCache(cc), sizeBytes: cc.SizeBytes, blockSize: cc.BlockSize,
	})
	return int32(len(*classes) - 1)
}

// predictorClass returns the index of the predictor class for cfg,
// creating it on first use: a BTB of BTBEntries, or a gshare of 8× that
// many counters.
func (g *Gang) predictorClass(cfg machine.Config) int32 {
	for i := range g.preds {
		p := &g.preds[i]
		if p.isGsh == cfg.Gshare && p.entries == cfg.BTBEntries {
			return int32(i)
		}
	}
	p := gangPredictor{entries: cfg.BTBEntries, isGsh: cfg.Gshare}
	if cfg.Gshare {
		p.gs = newGshare(cfg.BTBEntries * 8)
	} else {
		p.tbl = newBTB(cfg.BTBEntries)
	}
	g.preds = append(g.preds, p)
	return int32(len(g.preds) - 1)
}

func outcomeRows(n int) [][]uint8 {
	rows := make([][]uint8, n)
	for i := range rows {
		rows[i] = make([]uint8, gangChunk)
	}
	return rows
}

// Lanes returns the number of configurations stepping together.
func (g *Gang) Lanes() int { return len(g.lanes) }

// Config returns lane i's machine configuration.
func (g *Gang) Config(i int) machine.Config { return g.lanes[i].cfg }

// Stats returns lane i's statistics accumulated so far.  Cycles is the
// latest issue cycle plus one — for an out-of-order lane the highest, as
// issue is not monotone there — and zero for an empty trace.
func (g *Gang) Stats(i int) Stats {
	l := &g.lanes[i]
	st := l.st
	if st.Instrs > 0 {
		if l.ooo != nil {
			st.Cycles = l.ooo.maxIssue + 1
		} else {
			st.Cycles = l.prevIssue + 1
		}
	}
	return st
}

// Instrument attaches a cycle account to lane i; every event fed from
// this point on is attributed on that lane.  For a whole-run breakdown,
// call it before the first event (an uninstrumented lane does not track
// why its fetch is redirected, so the cycles of a redirect pending at a
// mid-run attach go to the cause last seen while instrumented, or to
// issue).  Other lanes are unaffected.  An
// account may be shared across lanes or simulators only sequentially (it
// is not synchronized).
func (g *Gang) Instrument(i int, a *obs.CycleAccount) {
	l := &g.lanes[i]
	l.acct = a
	if l.ooo != nil {
		l.ooo.instrument()
		return
	}
	if l.regMiss == nil {
		l.regMiss = make([]int64, len(l.regReady))
	}
	// -1: the first event also attributes cycle 0..issue, matching
	// Stats.Cycles = prevIssue + 1.
	l.acctPrev = -1
}

// Account returns lane i's attached cycle account (nil when the lane is
// uninstrumented).
func (g *Gang) Account(i int) *obs.CycleAccount { return g.lanes[i].acct }

// Event advances every lane by one dynamic instruction.  It implements
// emu.TraceSink; the model logic lives in the batch path.
func (g *Gang) Event(ev emu.Event) {
	evs := [1]emu.Event{ev}
	g.EventBatch(evs[:])
}

// EventBatch implements emu.BatchSink: the whole batch advances every
// lane before the call returns, in chunks of gangChunk events.
func (g *Gang) EventBatch(evs []emu.Event) {
	for start := 0; start < len(evs); start += gangChunk {
		end := start + gangChunk
		if end > len(evs) {
			end = len(evs)
		}
		g.chunk(evs[start:end])
	}
}

// chunk runs the two phases over at most gangChunk events: the shared
// front end fills one outcome row per class, then every lane replays the
// events against its own timing state.
func (g *Gang) chunk(evs []emu.Event) {
	code := g.code

	// Phase 1: shared front end.  Access order within each class is the
	// stream order, exactly the sequence a per-lane structure would see.
	// The stream- and class-pure statistics are counted here once.
	// Nullified instructions skip the memory access and the Branches
	// count; CondBranches and the prediction happen regardless — the
	// front end predicts at fetch, before decode-stage suppression.
	cs := Stats{}
	clear(g.icMissCnt)
	clear(g.dcMissCnt)
	clear(g.misprdCnt)
	for k := range g.dcOut {
		clear(g.dcOut[k][:len(evs)])
	}
	for k := range g.prOut {
		clear(g.prOut[k][:len(evs)])
	}
	for i := range evs {
		ev := &evs[i]
		d := &code[ev.ID]
		cs.Instrs++
		for k := range g.ics {
			out := outMiss
			if g.ics[k].access(int64(d.addr), true) {
				out = outHit
			} else {
				g.icMissCnt[k]++
			}
			g.icOut[k][i] = out
		}
		if ev.Flags&emu.FlagNullified != 0 {
			cs.Nullified++
		} else if d.flags&(sfLoad|sfStore) != 0 {
			// Loads allocate on miss; stores are write-through, no-allocate
			// (a store miss does not stall — write buffer assumed — and
			// does not allocate the block).
			allocate := d.flags&sfLoad != 0
			if allocate {
				cs.Loads++
			} else {
				cs.Stores++
			}
			for k := range g.dcs {
				out := outMiss
				if g.dcs[k].access(int64(ev.Addr)*8, allocate) {
					out = outHit
				} else {
					g.dcMissCnt[k]++
				}
				g.dcOut[k][i] = out
			}
		}
		if d.flags&sfBranch != 0 && ev.Flags&emu.FlagNullified == 0 {
			cs.Branches++
		}
		if d.flags&sfCond != 0 {
			cs.CondBranches++
			taken := ev.Flags&emu.FlagTaken != 0
			for k := range g.preds {
				p := &g.preds[k]
				var predicted bool
				if p.isGsh {
					predicted = p.gs.predict(d.addr)
					p.gs.update(d.addr, taken)
				} else {
					predicted = p.tbl.predict(d.addr)
					p.tbl.update(d.addr, taken)
				}
				out := outHit
				if predicted {
					out = outMiss
				}
				if predicted != taken {
					g.misprdCnt[k]++
				}
				g.prOut[k][i] = out
			}
		}
	}

	// Phase 2: per-lane timing replay over the same events, then the
	// shared chunk deltas.
	for li := range g.lanes {
		l := &g.lanes[li]
		var icOut, dcOut []uint8
		if l.ic >= 0 {
			icOut = g.icOut[l.ic]
			dcOut = g.dcOut[l.dc]
		}
		switch {
		case l.ooo != nil:
			laneReplayOoO(l, code, evs, icOut, dcOut, g.prOut[l.pr])
		case l.acct != nil:
			laneReplay[observedLane](l, code, evs, icOut, dcOut, g.prOut[l.pr])
		default:
			laneReplay[plainLane](l, code, evs, icOut, dcOut, g.prOut[l.pr])
		}
		l.st.Instrs += cs.Instrs
		l.st.Nullified += cs.Nullified
		l.st.Loads += cs.Loads
		l.st.Stores += cs.Stores
		l.st.Branches += cs.Branches
		l.st.CondBranches += cs.CondBranches
		l.st.Mispredicts += g.misprdCnt[l.pr]
		if l.ic >= 0 {
			l.st.ICacheMisses += g.icMissCnt[l.ic]
			l.st.DCacheMisses += g.dcMissCnt[l.dc]
		}
	}
}

// laneReplay advances one in-order lane through the chunk: the paper's
// pipeline (§4.1) over the shared front-end outcome rows, the lane's own
// scoreboard and its own penalties.  Every instruction issues no earlier
// than its predecessor, at most issueWidth per cycle of which at most
// branchSlots are branches, once its guard predicate and source registers
// are ready.
//
// With a cycle account attached, every cycle is also attributed to
// exactly one obs.Cause, keeping sum(Breakdown) == Stats.Cycles at every
// chunk boundary: each instruction attributes exactly the cycles between
// the last attributed cycle and its own issue cycle.  Cycles an
// instruction waited go to the constraint that blocked issue there, in
// the order the model applies constraints: front-end redirect
// (mispredict, icache, taken bubble), this instruction's own icache miss,
// guard-predicate readiness, source register readiness (with the trailing
// data-cache-miss share of the producing load split out).  When several
// constraints stall the same instruction the later one owns the later
// cycles, and the binding constraint — the one that finally set the issue
// cycle — donates the issue cycle itself back to CauseIssued.  The
// issue-width and branch-bandwidth limits are accounted differently
// because they never empty a cycle (a slot-deferred instruction issues the
// very next cycle, which by construction also issued the instructions
// that filled the slots): a cycle on which the machine issued but turned
// an instruction away for bandwidth is charged to that limit, so
// CauseIssued counts only unconstrained issue cycles and
// Breakdown.Stalls() reads as "cycles that were empty or saturated".
//
// The attribution costs the uninstrumented lane nothing: laneReplay is
// instantiated twice (laneMode), and in the plainLane instantiation the
// observe switch is a false constant, so the compiler drops every charge,
// the flush (attribute) and the redirect-cause bookkeeping, leaving the
// bare timing loop.
func laneReplay[M laneMode](l *gangLane, code []simInstr, evs []emu.Event, icOut, dcOut, prOut []uint8) {
	var mode M
	observe := unsafe.Sizeof(mode) != 0 // constant in each instantiation

	fetchAvail, prevIssue := l.fetchAvail, l.prevIssue
	curCycle := l.curCycle
	slots, brSlots := l.slots, l.brSlots
	regReady, predReady := l.regReady, l.predReady
	icMiss, dcMiss, predDist := l.icMiss, l.dcMiss, l.predDist
	mispredict, takenBubble := l.mispredict, l.takenBubble
	issueWidth, branchSlots := l.issueWidth, l.branchSlots
	fetchCause := l.fetchCause

	var at attribution
	for i := range evs {
		ev := &evs[i]
		d := &code[ev.ID]
		nullified := ev.Flags&emu.FlagNullified != 0

		// Front end: redirect floor, then instruction cache (shared
		// outcome, per-lane penalty).
		t := fetchAvail
		if observe && t > prevIssue {
			at.charge(fetchCause, t-prevIssue)
		}
		if t < prevIssue {
			t = prevIssue
		}
		if icOut != nil && icOut[i] == outMiss {
			t += icMiss
			fetchAvail = t
			if observe {
				fetchCause = obs.CauseICache
				at.charge(obs.CauseICache, icMiss)
			}
		}

		// Operand readiness.
		if d.guard >= 0 {
			r := predReady[d.guard]
			if observe && r > t {
				at.charge(obs.CausePredInterlock, r-t)
			}
			if r > t {
				t = r
			}
		}
		var loadLat int64
		if !nullified {
			// Unrolled over the (at most 3) sources: a counted slice range
			// here costs a slice-header construction per event.
			if d.nsrc > 0 {
				t0 := t
				if r := regReady[d.srcs[0]]; r > t {
					t = r
				}
				if d.nsrc > 1 {
					if r := regReady[d.srcs[1]]; r > t {
						t = r
					}
					if d.nsrc > 2 {
						if r := regReady[d.srcs[2]]; r > t {
							t = r
						}
					}
				}
				if observe && t > t0 {
					at.splitSources(d, regReady, l.regMiss, t0, t)
				}
			}
			if d.flags&sfLoad != 0 {
				loadLat = d.lat
				if dcOut != nil && dcOut[i] == outMiss {
					loadLat += dcMiss
				}
			}
		}

		// Issue slot allocation (in-order: never before the previous
		// instruction's issue cycle).  A guard-suppressed branch is
		// squashed at decode and does not occupy the branch unit.  Each
		// deferred cycle is charged to the limit that was full.
		isBranch := d.flags&sfBranch != 0 && !nullified
		for {
			if t > curCycle {
				curCycle = t
				slots, brSlots = 0, 0
			}
			if slots < issueWidth && (!isBranch || brSlots < branchSlots) {
				break
			}
			if observe {
				if slots >= issueWidth {
					at.charge(obs.CauseIssueWidth, 1)
				} else {
					at.charge(obs.CauseBranchLimit, 1)
				}
			}
			t = curCycle + 1
		}
		slots++
		if isBranch {
			brSlots++
		}
		issue := t
		if observe {
			l.attribute(&at, d.class, nullified, prevIssue, issue)
		}
		prevIssue = issue

		// Destination updates.
		if !nullified {
			if d.dst >= 0 {
				lat := d.lat
				if d.flags&sfLoad != 0 {
					lat = loadLat
				}
				regReady[d.dst] = issue + lat
				if observe {
					l.regMiss[d.dst] = lat - d.lat // the data-cache-miss share
				}
			}
			if d.flags&sfPredDef != 0 {
				if d.npd > 0 {
					predReady[d.pd[0]] = issue + predDist
					if d.npd > 1 {
						predReady[d.pd[1]] = issue + predDist
					}
				}
			} else if d.flags&sfPredAll != 0 {
				for p := d.predLo; p < d.predHi; p++ {
					predReady[p] = issue + predDist
				}
			}
		}

		// Branch resolution: the direction came from the shared predictor
		// class; only the redirect cost, and the cause the next fetch
		// stall belongs to, are lane-local.  A branch is dynamically
		// conditional if it is a compare-and-branch or a guarded jump (the
		// combined exits produced by branch combining).
		if d.flags&sfBranch != 0 {
			taken := ev.Flags&emu.FlagTaken != 0
			if d.flags&sfCond != 0 {
				predicted := prOut[i] == outMiss
				if predicted != taken {
					fetchAvail = issue + 1 + mispredict
					if observe {
						fetchCause = obs.CauseMispredict
					}
				} else if taken {
					fetchAvail = issue + takenBubble
					if observe {
						fetchCause = obs.CauseTakenRedirect
					}
				}
			} else if taken && !nullified {
				// Unguarded Jump, JSR, Ret: static or stack-predicted
				// targets are assumed correctly predicted; only the
				// configured taken redirect bubble applies.
				fetchAvail = issue + takenBubble
				if observe {
					fetchCause = obs.CauseTakenRedirect
				}
			}
		}
	}

	l.fetchAvail, l.prevIssue = fetchAvail, prevIssue
	l.curCycle = curCycle
	l.slots, l.brSlots = slots, brSlots
	if observe {
		l.fetchCause = fetchCause
	}
}

// laneMode selects one of laneReplay's two compiled forms.  Go compiles a
// generic function once per memory shape of its type arguments, and these
// two differ in size, so laneReplay's observe switch (the mode's size) is
// a constant in each.
type laneMode interface{ plainLane | observedLane }

type (
	plainLane    struct{}         // uninstrumented: the bare timing loop
	observedLane struct{ _ byte } // instrumented: every cycle attributed
)

// attribution is one in-order instruction's pending cycle attribution:
// the cycles each constraint added beyond the in-order floor (the previous
// issue cycle) and the binding constraint, the last one charged
// (CauseIssued doubles as "none yet").
type attribution struct {
	inc  [obs.NumCauses]int64
	last obs.Cause
}

func (at *attribution) charge(c obs.Cause, n int64) {
	at.inc[c] += n
	at.last = c
}

// splitSources charges a source-register wait (from, ready] to the
// register interlock and the data-cache-miss share: base is the readiness
// the sources would have had without their producing loads' miss
// penalties, so the wait up to base is interlock and the tail beyond it
// the dcache's.
func (at *attribution) splitSources(d *simInstr, regReady, regMiss []int64, from, ready int64) {
	base := from
	for k := uint8(0); k < d.nsrc; k++ {
		src := d.srcs[k]
		if b := regReady[src] - regMiss[src]; b > base {
			base = b
		}
	}
	if base > from {
		at.charge(obs.CauseRegInterlock, base-from)
	}
	if ready > base {
		at.charge(obs.CauseDCache, ready-base)
	}
}

// attribute flushes one instruction's attribution into the lane's account
// and resets it.  New cycles the instruction brought into the run are
// (acctPrev, issue]; the charges cover (floor, issue].  The difference —
// acctPrev+1-floor, one cycle except on the first instruction — was
// already attributed (it is the previous instruction's issue cycle), so
// the binding constraint donates it back, and the issue cycle itself goes
// to CauseIssued.  Bandwidth saturation is the exception: slot conflicts
// only arise when t == floor (any fetch or operand raise moves t past
// curCycle and resets the slots), so the charges hold exactly the one
// deferral cycle, which stays with the limit.  An instruction issuing in
// an already attributed cycle stalled on nothing and adds nothing.
func (l *gangLane) attribute(at *attribution, class uint8, nullified bool, floor, issue int64) {
	a := l.acct
	a.Fetched[class]++
	if nullified {
		a.Nullified[class]++
	}
	if issue > l.acctPrev {
		if at.last != obs.CauseIssueWidth && at.last != obs.CauseBranchLimit {
			if over := l.acctPrev + 1 - floor; over > 0 && at.last != obs.CauseIssued {
				at.inc[at.last] -= over
			}
			at.inc[obs.CauseIssued]++
		}
		for c, n := range at.inc {
			a.Breakdown[c] += n
		}
		l.acctPrev = issue
	}
	*at = attribution{}
}
