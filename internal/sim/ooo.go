package sim

import (
	"predication/internal/emu"
	"predication/internal/machine"
	"predication/internal/obs"
)

// ooo.go implements the out-of-order issue-window variant of the timing
// model (machine.Config.OoO).  The scheduler keeps the in-order model's
// front end — in-order fetch with the same predictor, BTB redirect and
// icache behaviour — but dispatches instructions in order into an N-entry
// instruction window, renames away WAW/WAR register ordering, and issues
// oldest-first as soon as operands and issue slots allow.  Retirement is
// in order and off the critical path: a window entry frees when its
// instruction issues, so the backpressure constraint is
//
//	dispatch[i] >= max(issue[j] : j <= i-N)
//
// i.e. instruction i cannot enter the window until the instruction N
// positions ahead of it has left.  With N == 1 this degenerates exactly
// to the in-order model's "never issue before the previous instruction"
// rule (retire-coupled issue), which is what the window-1 parity test
// pins.  See docs/SIMULATOR.md, "Out-of-order issue window".
//
// Because events arrive in program order and each instruction writes its
// destination at most once per dynamic instance, processing the stream in
// order with a per-architectural-register value-ready time IS renaming:
// a later writer simply overwrites the ready time (a new physical
// register), and readers observe the value of the most recent program-
// order producer — only true (RAW) dependences remain.  The in-order
// WAW/WAR serialization never existed in this representation to begin
// with; it was enforced by the in-order issue rule, which the window
// removes.
//
// The scheduler runs as a gang lane (gang.go): oooState.step consumes one
// dynamic instruction with its front-end outcomes (icache, dcache,
// prediction) already resolved by the gang's shared front end.

// oooState is the scheduler core: readiness arrays (the owning gang
// lane's stripes), the sliding-window ring, the in-order
// rename/dispatch bandwidth counters, and the out-of-order issue-slot
// occupancy ring.
type oooState struct {
	regReady  []int64
	predReady []int64
	regMiss   []int64 // non-nil only when instrumented: dcache share of readiness

	// Scalar machine parameters (hoisted like the in-order lane's).
	predDist    int64
	icMissPen   int64
	dcMissPen   int64
	mispredict  int64
	takenBubble int64
	issueWidth  int
	branchSlots int

	fetchAvail   int64 // earliest dispatch cycle allowed by the front end
	prevDispatch int64 // dispatch is in order: monotone
	maxIssue     int64 // issue is NOT monotone: Stats.Cycles = maxIssue+1

	// In-order rename/dispatch bandwidth: at most issueWidth
	// instructions enter the window per cycle.  dispGated remembers
	// whether the current dispatch cohort was seeded by window
	// backpressure, which decides whether its overflow cycles are
	// charged to window_full or rename_stall (see step).
	dispCycle int64
	dispCnt   int
	dispGated bool

	// Sliding window over program order: winRing holds the issue cycles
	// of the last WindowSize dispatched instructions; winOld folds the
	// evicted entries into a running max, so the window constraint for
	// instruction i is winOld == max issue among j <= i-WindowSize.
	winRing []int64
	winPos  int
	winOld  int64

	// Out-of-order issue-slot occupancy per cycle.
	ring ooRing

	// Cycle-accounting state (see laneReplay for the in-order scheme).
	fetchCause obs.Cause
	acctPrev   int64
}

// ooRing tracks per-cycle issue and branch slot occupancy over the range
// of cycles that can still receive an issue: [base, base+len).  base
// advances with dispatch (no instruction can issue before its dispatch,
// and dispatch is monotone), recycling vacated entries for future
// cycles; the ring doubles when a long-latency dependence chain pushes
// an issue further ahead of dispatch than the ring can address.
type ooRing struct {
	cnt  []int32
	br   []int32
	base int64
	mask int64
}

func (r *ooRing) init(window int) {
	size := int64(64)
	for size < int64(4*window) {
		size <<= 1
	}
	r.cnt = make([]int32, size)
	r.br = make([]int32, size)
	r.mask = size - 1
}

// advance forgets cycles below lo: future issues are all >= lo, so their
// slots are recycled for the cycles one ring length ahead.
func (r *ooRing) advance(lo int64) {
	if lo <= r.base {
		return
	}
	if lo-r.base >= int64(len(r.cnt)) {
		clear(r.cnt)
		clear(r.br)
		r.base = lo
		return
	}
	for c := r.base; c < lo; c++ {
		r.cnt[c&r.mask] = 0
		r.br[c&r.mask] = 0
	}
	r.base = lo
}

// ensure grows the ring until cycle c is addressable.
func (r *ooRing) ensure(c int64) {
	for c-r.base >= int64(len(r.cnt)) {
		r.grow()
	}
}

func (r *ooRing) grow() {
	n := int64(len(r.cnt)) * 2
	cnt := make([]int32, n)
	br := make([]int32, n)
	m := n - 1
	for c := r.base; c < r.base+int64(len(r.cnt)); c++ {
		cnt[c&m] = r.cnt[c&r.mask]
		br[c&m] = r.br[c&r.mask]
	}
	r.cnt, r.br, r.mask = cnt, br, m
}

func newOoOState(cfg machine.Config, regReady, predReady []int64) *oooState {
	o := &oooState{
		regReady:    regReady,
		predReady:   predReady,
		predDist:    int64(cfg.PredDist()),
		icMissPen:   int64(cfg.ICache.MissCycles),
		dcMissPen:   int64(cfg.DCache.MissCycles),
		mispredict:  int64(cfg.MispredictPenalty),
		takenBubble: int64(cfg.TakenBranchBubble),
		issueWidth:  cfg.IssueWidth,
		branchSlots: cfg.BranchSlots,
		winRing:     make([]int64, cfg.WindowSize),
		acctPrev:    -1,
	}
	o.ring.init(cfg.WindowSize)
	return o
}

// instrument prepares the scheduler for cycle accounting (see
// Gang.Instrument for the acctPrev = -1 convention).
func (o *oooState) instrument() {
	if o.regMiss == nil {
		o.regMiss = make([]int64, len(o.regReady))
	}
	o.acctPrev = -1
}

// step advances the scheduler by one dynamic instruction whose front-end
// outcomes are already resolved by the caller.  With a non-nil account it
// also attributes every newly covered cycle to one cause.
//
// The attribution scheme generalizes laneReplay's: the constraint ladder
// (redirect, icache, rename bandwidth, guard, sources, issue slots)
// covers contiguous ascending cycle ranges ending at the issue cycle,
// but out-of-order issue is not monotone — this instruction may issue
// entirely under cycles an older instruction already attributed — so
// every range is clamped at the floor of the last attributed cycle
// (acctPrev, the running max issue) and an event that issues at or below
// the floor attributes nothing.  The binding constraint still donates the
// issue cycle itself back to CauseIssued, and the bandwidth limits keep
// their "saturated, never empty" accounting.  Summed over a run the
// attributed cycles are exactly (-1, maxIssue], matching Stats.Cycles.
//
// Window backpressure needs special handling: its bound is an older
// instruction's issue cycle, which by definition never exceeds the
// attribution floor, so the raw wait is always charged to whatever
// stalled that older instruction.  Where the window's cost genuinely
// appears on the timeline is the drain after such a stall — the machine
// spends fresh cycles dispatching (and immediately issuing) the backlog
// it was too small to hold in flight.  Those drain cycles are dispatch-
// bandwidth overflow seeded by a window gate, and step charges them to
// CauseWindowFull; the same overflow in an ungated cohort (pure fetch
// bursts) stays CauseRenameStall.
func (o *oooState) step(d *simInstr, nullified, taken, mispredicted, icMiss, dcMiss bool, a *obs.CycleAccount) {
	var inc [obs.NumCauses]int64
	last := obs.CauseIssued
	floor := o.acctPrev
	add := func(c obs.Cause, from, to int64) {
		if a == nil {
			return
		}
		if from < floor {
			from = floor
		}
		if to > from {
			inc[c] += to - from
			last = c
		}
	}

	// Front end: in-order dispatch never reorders, so the floor is the
	// previous instruction's dispatch cycle; redirects raise it.
	t := o.prevDispatch
	if o.fetchAvail > t {
		add(o.fetchCause, t, o.fetchAvail)
		t = o.fetchAvail
	}
	// Window backpressure: the entry for this instruction frees when the
	// instruction WindowSize positions older has issued.
	if evict := o.winRing[o.winPos]; evict > o.winOld {
		o.winOld = evict
	}
	gated := false
	if o.winOld > t {
		// The raw wait [t, winOld) is never directly attributable:
		// winOld is an older instruction's issue cycle, so every cycle
		// of the wait lies at or below the attribution floor and was
		// already charged to whatever stalled that instruction.  The
		// window's cost surfaces instead through the dispatch drain
		// below: cohorts seeded by this gate charge their overflow
		// cycles — the post-stall cycles the machine spends releasing
		// work it could not hold in flight — to CauseWindowFull.
		t = o.winOld
		gated = true
	}
	if icMiss {
		add(obs.CauseICache, t, t+o.icMissPen)
		t += o.icMissPen
		o.fetchAvail = t
		o.fetchCause = obs.CauseICache
	}
	// Rename/dispatch bandwidth: at most issueWidth instructions enter
	// the window per cycle, in order.  A fresh cohort (a dispatch cycle
	// no prior instruction entered) inherits this instruction's window
	// gate; joining an existing cohort preserves the seed, so a drain
	// that started window-gated stays window-gated across its +1 spill
	// cycles even though the spilled instructions' own window bounds are
	// stale.
	if t > o.dispCycle {
		o.dispCycle = t
		o.dispCnt = 0
		if !gated {
			o.dispGated = false
		}
	}
	for o.dispCnt >= o.issueWidth {
		if gated || o.dispGated {
			add(obs.CauseWindowFull, t, t+1)
		} else {
			add(obs.CauseRenameStall, t, t+1)
		}
		t++
		o.dispCycle = t
		o.dispCnt = 0
	}
	o.dispCnt++
	if gated {
		o.dispGated = true
	}
	dispatch := t
	o.prevDispatch = dispatch
	o.ring.advance(dispatch)

	// Operand readiness constrains issue, not dispatch: renaming leaves
	// only true dependences (and the guard) in the way.
	if d.guard >= 0 {
		if r := o.predReady[d.guard]; r > t {
			add(obs.CausePredInterlock, t, r)
			t = r
		}
	}
	var loadLat int64
	if !nullified {
		if d.nsrc > 0 {
			ready := t
			for k := uint8(0); k < d.nsrc; k++ {
				if r := o.regReady[d.srcs[k]]; r > ready {
					ready = r
				}
			}
			if ready > t {
				if a != nil {
					// Split the wait between register interlock and the
					// data-cache-miss share, as in laneReplay: base is the
					// counterfactual readiness without the producing
					// loads' miss penalties.
					base := t
					for k := uint8(0); k < d.nsrc; k++ {
						src := d.srcs[k]
						if b := o.regReady[src] - o.regMiss[src]; b > base {
							base = b
						}
					}
					add(obs.CauseRegInterlock, t, base)
					add(obs.CauseDCache, base, ready)
				}
				t = ready
			}
		}
		if d.flags&sfLoad != 0 {
			loadLat = d.lat
			if dcMiss {
				loadLat += o.dcMissPen
			}
		}
	}

	// Issue select: the earliest cycle >= t with a free issue slot (and a
	// free branch slot for branches).  Events are processed in program
	// order, so slot contention resolves oldest-first by construction.
	isBranch := d.flags&sfBranch != 0 && !nullified
	o.ring.ensure(t)
	for {
		i := t & o.ring.mask
		if int(o.ring.cnt[i]) < o.issueWidth && (!isBranch || int(o.ring.br[i]) < o.branchSlots) {
			break
		}
		if int(o.ring.cnt[i]) >= o.issueWidth {
			add(obs.CauseIssueWidth, t, t+1)
		} else {
			add(obs.CauseBranchLimit, t, t+1)
		}
		t++
		o.ring.ensure(t)
	}
	o.ring.cnt[t&o.ring.mask]++
	if isBranch {
		o.ring.br[t&o.ring.mask]++
	}
	issue := t
	if issue > o.maxIssue {
		o.maxIssue = issue
	}

	// The window slot vacated by instruction i-WindowSize now records
	// this instruction's issue cycle.
	o.winRing[o.winPos] = issue
	o.winPos++
	if o.winPos == len(o.winRing) {
		o.winPos = 0
	}

	// Flush the attribution: new cycles are (acctPrev, issue]; the
	// clamped ladder covers exactly those plus the shared floor cycle the
	// binding constraint donates back (see laneReplay).
	if a != nil && issue > o.acctPrev {
		want := issue - o.acctPrev
		var got int64
		for _, n := range inc {
			got += n
		}
		if last == obs.CauseIssueWidth || last == obs.CauseBranchLimit ||
			last == obs.CauseRenameStall || last == obs.CauseWindowFull {
			// Bandwidth saturation never empties a cycle; its deferral
			// cycles stay charged to the limit.  Any uncovered remainder
			// (first event only) is unconstrained issue.
			if got < want {
				inc[obs.CauseIssued] += want - got
			}
		} else {
			inc[obs.CauseIssued]++
			got++
			if got > want {
				inc[last] -= got - want
			} else if got < want {
				inc[obs.CauseIssued] += want - got
			}
		}
		for c, n := range inc {
			if n != 0 {
				a.Breakdown[c] += n
			}
		}
		o.acctPrev = issue
	}

	// Destination updates (renaming: overwrite is a new physical
	// register).
	if !nullified {
		if d.dst >= 0 {
			lat := d.lat
			if d.flags&sfLoad != 0 {
				lat = loadLat
			}
			o.regReady[d.dst] = issue + lat
			if o.regMiss != nil {
				var lm int64
				if d.flags&sfLoad != 0 && dcMiss {
					lm = o.dcMissPen
				}
				o.regMiss[d.dst] = lm
			}
		}
		if d.flags&sfPredDef != 0 {
			if d.npd > 0 {
				o.predReady[d.pd[0]] = issue + o.predDist
				if d.npd > 1 {
					o.predReady[d.pd[1]] = issue + o.predDist
				}
			}
		} else if d.flags&sfPredAll != 0 {
			for p := d.predLo; p < d.predHi; p++ {
				o.predReady[p] = issue + o.predDist
			}
		}
	}

	// Branch redirects.  A misprediction is discovered at branch
	// resolution (issue), exactly as in the in-order model; a correctly
	// predicted taken branch redirects fetch at dispatch time — the BTB
	// supplies the target before issue — so the configured bubble counts
	// from dispatch, not issue.  (With the paper's zero bubble the two
	// coincide; this is the one place a nonzero TakenBranchBubble makes a
	// window-1 machine differ from the in-order model.)
	if d.flags&sfBranch != 0 {
		if d.flags&sfCond != 0 {
			if mispredicted {
				o.fetchAvail = issue + 1 + o.mispredict
				o.fetchCause = obs.CauseMispredict
			} else if taken {
				o.fetchAvail = dispatch + o.takenBubble
				o.fetchCause = obs.CauseTakenRedirect
			}
		} else if taken && !nullified {
			o.fetchAvail = dispatch + o.takenBubble
			o.fetchCause = obs.CauseTakenRedirect
		}
	}
}

// laneReplayOoO advances one out-of-order gang lane through a chunk,
// feeding oooState.step the pre-computed shared outcome rows (gang.go
// phase 1).  Statistics are applied from the chunk deltas by the caller —
// only the account's instruction-mix histograms are counted here, because
// they belong to the lane's CycleAccount, not its Stats.
func laneReplayOoO(l *gangLane, code []simInstr, evs []emu.Event, icOut, dcOut, prOut []uint8) {
	o := l.ooo
	a := l.acct
	for i := range evs {
		ev := &evs[i]
		d := &code[ev.ID]
		nullified := ev.Flags&emu.FlagNullified != 0
		if a != nil {
			a.Fetched[d.class]++
			if nullified {
				a.Nullified[d.class]++
			}
		}
		icMiss := icOut != nil && icOut[i] == outMiss
		dcMiss := !nullified && d.flags&sfLoad != 0 && dcOut != nil && dcOut[i] == outMiss
		taken := ev.Flags&emu.FlagTaken != 0
		mispredicted := d.flags&sfCond != 0 && (prOut[i] == outMiss) != taken
		o.step(d, nullified, taken, mispredicted, icMiss, dcMiss, a)
	}
}
