package sim

import (
	"cmp"
	"math"
	"slices"
	"unsafe"

	"predication/internal/emu"
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
// The scheduler runs as a gang lane (gang.go): laneReplayOoO replays a
// chunk of dynamic instructions with their front-end outcomes (icache,
// dcache, prediction) already resolved by the gang's shared front end,
// holding the scheduler state in locals for the whole chunk.  Like
// laneReplay it is compiled twice (laneMode): a plain form that only
// times, and an observed form that also attributes every cycle.

// oooState is the out-of-order lane's scheduler state between chunks;
// the lane's readiness stripes, penalties, fetch redirect and cycle
// account live in gangLane, shared with the in-order loop.
type oooState struct {
	// Dispatch is in order, so prevDispatch is monotone; it is also the
	// earliest cycle any later instruction can issue in, which is what
	// bounds the issue-slot ring.  Issue is NOT monotone (see maxIssue).
	prevDispatch int64

	// In-order rename/dispatch bandwidth: at most issueWidth instructions
	// enter the window per cycle, and dispCnt have entered in cycle
	// prevDispatch.  dispGated (observed form only) remembers whether
	// that dispatch cohort was seeded by window backpressure, which
	// decides whether its overflow cycles are charged to window_full or
	// rename_stall (see laneReplayOoO).
	dispCnt   int32
	dispGated bool

	// Sliding window over program order: winRing holds the issue cycles
	// of the last WindowSize dispatched instructions; winOld folds the
	// evicted entries into a running max, so the window constraint for
	// instruction i is winOld == max issue among j <= i-WindowSize.
	winRing []int64
	winPos  int
	winOld  int64

	slots issueSlots
}

// issueSlots is the per-cycle issue and branch slot occupancy of the
// cycles that can still receive an issue, those at or after the latest
// dispatch cycle (no instruction issues before its dispatch).
//
// Cycles below base+len(ring) live in ring, at their cycle's index,
// which holds them alone: an entry counts only while its tag equals its
// cycle, so a slot left by a cycle below base reads empty without ever
// being cleared.  Later cycles, which only long latency chains reach,
// live in far, sorted by cycle; advance moves them into the ring as
// dispatch catches up.  Every cycle after a dispatch cycle D is occupied
// by one of the WindowSize-1 instructions dispatched before the
// instruction at D (older ones issued by D, or the window would not have
// let it in), so far never holds more than WindowSize cycles, and the
// memory is set by the window alone, whatever the latencies.
type issueSlots struct {
	ring  []slotEntry
	mask  int64
	far   []slotEntry
	farLo int64 // far[0].cycle, or math.MaxInt64 when far is empty
}

// slotEntry is one cycle's occupancy: cnt instructions, br of them
// branches.
type slotEntry struct {
	cycle   int64
	cnt, br int32
}

// newOoOState sizes the issue-slot ring at twice the window, 64 entries at
// least: with a 32-entry window on the stock machines, fewer than one slot
// probe in 100,000 lies 64 or more cycles past dispatch (the 15 kernels
// under full predication).  far is allocated on first use.
func newOoOState(window int) *oooState {
	size := 64
	for size < 2*window {
		size <<= 1
	}
	return &oooState{
		winRing: make([]int64, window),
		slots: issueSlots{
			ring:  make([]slotEntry, size),
			mask:  int64(size - 1),
			farLo: math.MaxInt64,
		},
	}
}

// advance moves the far cycles that base has brought within the ring's
// reach into it.  The ring entries they overwrite are all below base.
func (s *issueSlots) advance(base int64) {
	n := 0
	for n < len(s.far) && s.far[n].cycle-base <= s.mask {
		s.ring[s.far[n].cycle&s.mask] = s.far[n]
		n++
	}
	s.far = s.far[:copy(s.far, s.far[n:])]
	s.farLo = math.MaxInt64
	if len(s.far) > 0 {
		s.farLo = s.far[0].cycle
	}
}

// farEntry returns the far index of cycle c, or where it would be
// inserted, and whether c is there.
func (s *issueSlots) farEntry(c int64) (int, bool) {
	return slices.BinarySearchFunc(s.far, c, func(e slotEntry, c int64) int {
		return cmp.Compare(e.cycle, c)
	})
}

// farOccupancy returns far cycle c's occupancy.
func (s *issueSlots) farOccupancy(c int64) (cnt, br int32) {
	if k, ok := s.farEntry(c); ok {
		return s.far[k].cnt, s.far[k].br
	}
	return 0, 0
}

// farTake issues one instruction, br of them branches, in far cycle c.
func (s *issueSlots) farTake(c int64, br int32) {
	k, ok := s.farEntry(c)
	if ok {
		s.far[k].cnt++
		s.far[k].br += br
	} else {
		s.far = slices.Insert(s.far, k, slotEntry{cycle: c, cnt: 1, br: br})
	}
	s.farLo = s.far[0].cycle
}

// take issues an instruction that is ready at t, a branch when br is 1, in
// the first cycle from t on with a free issue slot and, for a branch, a
// free branch slot, and returns that cycle.  With a non-nil at it charges
// every cycle passed over to the limit that was full, from the floor on.
// It is the slot search's slow path: laneReplayOoO tries cycle t itself.
func (s *issueSlots) take(t, dispatch int64, issueWidth, branchSlots, br int32, at *attribution, floor int64) int64 {
	for {
		inRing := t-dispatch <= s.mask
		var cnt, brs int32
		if !inRing {
			cnt, brs = s.farOccupancy(t)
		} else if e := s.ring[t&s.mask]; e.cycle == t {
			cnt, brs = e.cnt, e.br
		}
		if cnt < issueWidth && brs+br <= branchSlots {
			if inRing {
				s.ring[t&s.mask] = slotEntry{cycle: t, cnt: cnt + 1, br: brs + br}
			} else {
				s.farTake(t, br)
			}
			return t
		}
		if at != nil {
			if cnt >= issueWidth {
				at.chargeAbove(obs.CauseIssueWidth, floor, t, t+1)
			} else {
				at.chargeAbove(obs.CauseBranchLimit, floor, t, t+1)
			}
		}
		t++
	}
}

// laneReplayOoO advances one out-of-order gang lane through a chunk over
// the shared front-end outcome rows (gang.go phase 1).  Statistics are
// applied from the chunk deltas by the caller.  The scheduler state is
// loaded into locals on entry and stored back on exit.
//
// Each instruction dispatches in order, no earlier than the front end
// delivers it (redirect, then its own icache miss), than the window
// frees an entry, and than the dispatch bandwidth allows.  It then
// issues at the first cycle from the latest of its dispatch, guard and
// source readiness that has a free issue slot (and a free branch slot
// for a branch).  Events are processed in program order, so slot
// contention resolves oldest-first by construction.
//
// In the observed form (observedLane) every cycle is also attributed to
// one cause.  The scheme generalizes laneReplay's: the constraint ladder
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
// bandwidth overflow seeded by a window gate, and they are charged to
// CauseWindowFull; the same overflow in an ungated cohort (pure fetch
// bursts) stays CauseRenameStall.
//
// The plain form (plainLane) compiles all of that out, including the
// redirect causes, the dispatch gate and the dcache share of register
// readiness, which only the attribution reads.
func laneReplayOoO[M laneMode](l *gangLane, code []simInstr, evs []emu.Event, icOut, dcOut, prOut []uint8) {
	var mode M
	observe := unsafe.Sizeof(mode) != 0 // constant in each instantiation

	// A lane without caches reads rows of no access; every row is cut to
	// the chunk, so indexing them by event needs no bounds check.
	if icOut == nil {
		icOut, dcOut = noOutcomes[:], noOutcomes[:]
	}
	icOut, dcOut, prOut = icOut[:len(evs)], dcOut[:len(evs)], prOut[:len(evs)]

	var atp *attribution // the slot search's charges, observed form only
	var at attribution
	if observe {
		atp = &at
	}
	o := l.ooo
	regReady, predReady := l.regReady, l.predReady
	// Slot counts are int32: a wider machine acts as MaxInt32 wide, which
	// no cycle's count reaches.
	issueWidth := int32(min(l.issueWidth, math.MaxInt32))
	branchSlots := int32(min(l.branchSlots, math.MaxInt32))
	fetchAvail, fetchCause := l.fetchAvail, l.fetchCause
	prevDispatch := o.prevDispatch
	dispCnt, dispGated := o.dispCnt, o.dispGated
	winRing, winPos, winOld := o.winRing, o.winPos, o.winOld
	slots := &o.slots
	ring := slots.ring
	if len(ring) == 0 { // never: saying so drops ring[t&(len-1)]'s bounds check
		return
	}

	for i := range evs {
		ev := &evs[i]
		d := &code[ev.ID]
		nullified := ev.Flags&emu.FlagNullified != 0
		var floor int64 // the last attributed cycle
		if observe {
			floor = l.acctPrev
		}

		// Front end: in-order dispatch never reorders, so the floor is the
		// previous instruction's dispatch cycle; redirects raise it.
		t := prevDispatch
		if observe && fetchAvail > t {
			at.chargeAbove(fetchCause, floor, t, fetchAvail)
		}
		t = max(t, fetchAvail)
		// Window backpressure: the entry for this instruction frees when
		// the instruction WindowSize positions older has issued.  The raw
		// wait [t, winOld) lies at or below the attribution floor (winOld
		// is an older instruction's issue cycle), so it is never charged;
		// the window's cost surfaces instead as the overflow cycles of the
		// dispatch cohort this gate seeds (below).
		winOld = max(winOld, winRing[winPos])
		gated := winOld > t
		t = max(t, winOld)
		if icOut[i] == outMiss {
			if observe {
				at.chargeAbove(obs.CauseICache, floor, t, t+l.icMiss)
				fetchCause = obs.CauseICache
			}
			t += l.icMiss
			fetchAvail = t
		}
		// Rename/dispatch bandwidth: at most issueWidth instructions enter
		// the window per cycle, in order.  A fresh cohort (a dispatch
		// cycle no prior instruction entered) inherits this instruction's
		// window gate; joining an existing cohort preserves the seed, so a
		// drain that started window-gated stays window-gated across its +1
		// spill cycles even though the spilled instructions' own window
		// bounds are stale.
		//
		// Whether t opens a new cycle and whether the cohort is full are
		// timing-dependent, so both are computed without branches: fresh
		// is -1 for a new cycle, full is 1 when issueWidth have entered.
		fresh := int32((prevDispatch - t) >> 63)
		dispCnt &^= fresh
		full := 1 + (dispCnt-issueWidth)>>31
		if observe {
			if fresh != 0 && !gated {
				dispGated = false
			}
			if full != 0 {
				if gated || dispGated {
					at.chargeAbove(obs.CauseWindowFull, floor, t, t+1)
				} else {
					at.chargeAbove(obs.CauseRenameStall, floor, t, t+1)
				}
			}
			if gated {
				dispGated = true
			}
		}
		t += int64(full)
		dispCnt = dispCnt&(full-1) + 1
		dispatch := t
		prevDispatch = dispatch
		if slots.farLo-dispatch < int64(len(ring)) {
			slots.advance(dispatch)
		}

		// Operand readiness constrains issue, not dispatch: renaming leaves
		// only true dependences (and the guard) in the way.
		if d.guard >= 0 {
			r := predReady[d.guard]
			if observe && r > t {
				at.chargeAbove(obs.CausePredInterlock, floor, t, r)
			}
			t = max(t, r)
		}
		var loadLat int64
		if !nullified {
			if d.nsrc > 0 {
				ready := max(t, regReady[d.srcs[0]])
				if d.nsrc > 1 {
					ready = max(ready, regReady[d.srcs[1]])
					if d.nsrc > 2 {
						ready = max(ready, regReady[d.srcs[2]])
					}
				}
				if observe && ready > t {
					// Split the wait between register interlock and the
					// data-cache-miss share, as in laneReplay: base is the
					// counterfactual readiness without the producing
					// loads' miss penalties.
					base := t
					for k := uint8(0); k < d.nsrc; k++ {
						src := d.srcs[k]
						base = max(base, regReady[src]-l.regMiss[src])
					}
					at.chargeAbove(obs.CauseRegInterlock, floor, t, base)
					at.chargeAbove(obs.CauseDCache, floor, base, ready)
				}
				t = ready
			}
			if d.flags&sfLoad != 0 {
				loadLat = d.lat
				if dcOut[i] == outMiss {
					loadLat += l.dcMiss
				}
			}
		}

		// Issue select: the earliest cycle >= t with a free issue slot
		// (and a free branch slot for a branch).  A guard-suppressed
		// branch is squashed at decode and does not occupy the branch
		// unit.  Cycle t itself is tried here, the rest in take.
		var br int32
		if d.flags&sfBranch != 0 && !nullified {
			br = 1
		}
		if t-dispatch < int64(len(ring)) {
			e := ring[t&int64(len(ring)-1)]
			cnt, brs := e.cnt, e.br
			if e.cycle != t {
				cnt, brs = 0, 0
			}
			// cnt < issueWidth && brs+br <= branchSlots, in one branch:
			// both differences are negative.
			if (cnt-issueWidth)&(brs+br-branchSlots-1) < 0 {
				ring[t&int64(len(ring)-1)] = slotEntry{cycle: t, cnt: cnt + 1, br: brs + br}
			} else {
				t = slots.take(t, dispatch, issueWidth, branchSlots, br, atp, floor)
			}
		} else {
			t = slots.take(t, dispatch, issueWidth, branchSlots, br, atp, floor)
		}
		issue := t

		// The window slot vacated by instruction i-WindowSize now records
		// this instruction's issue cycle.
		winRing[winPos] = issue
		winPos++
		if winPos == len(winRing) {
			winPos = 0
		}
		if observe {
			l.attributeOoO(&at, d.class, nullified, issue)
		}

		// Destination updates (renaming: overwrite is a new physical
		// register).
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
					predReady[d.pd[0]] = issue + l.predDist
					if d.npd > 1 {
						predReady[d.pd[1]] = issue + l.predDist
					}
				}
			} else if d.flags&sfPredAll != 0 {
				for p := d.predLo; p < d.predHi; p++ {
					predReady[p] = issue + l.predDist
				}
			}
		}

		// Branch redirects.  A misprediction is discovered at branch
		// resolution (issue), exactly as in the in-order model; a
		// correctly predicted taken branch redirects fetch at dispatch
		// time — the BTB supplies the target before issue — so the
		// configured bubble counts from dispatch, not issue.  (With the
		// paper's zero bubble the two coincide; this is the one place a
		// nonzero TakenBranchBubble makes a window-1 machine differ from
		// the in-order model.)
		if d.flags&sfBranch != 0 {
			taken := ev.Flags&emu.FlagTaken != 0
			if d.flags&sfCond != 0 {
				if (prOut[i] == outMiss) != taken {
					fetchAvail = issue + 1 + l.mispredict
					if observe {
						fetchCause = obs.CauseMispredict
					}
				} else if taken {
					fetchAvail = dispatch + l.takenBubble
					if observe {
						fetchCause = obs.CauseTakenRedirect
					}
				}
			} else if taken && !nullified {
				fetchAvail = dispatch + l.takenBubble
				if observe {
					fetchCause = obs.CauseTakenRedirect
				}
			}
		}
	}

	l.fetchAvail = fetchAvail
	o.prevDispatch = prevDispatch
	o.dispCnt = dispCnt
	o.winPos, o.winOld = winPos, winOld
	if observe {
		l.fetchCause = fetchCause
		o.dispGated = dispGated
	}
}

// noOutcomes is the outcome row of a lane without caches: no access.
var noOutcomes [gangChunk]uint8

// maxIssue returns the latest issue cycle so far: the window holds the
// last WindowSize issues and winOld the maximum of all earlier ones.
func (o *oooState) maxIssue() int64 {
	return max(o.winOld, slices.Max(o.winRing))
}

// chargeAbove charges the cycles of [from, to) that lie at or above the
// attribution floor; a range wholly below it charges nothing and does
// not become the binding constraint.
func (at *attribution) chargeAbove(c obs.Cause, floor, from, to int64) {
	if from < floor {
		from = floor
	}
	if to > from {
		at.charge(c, to-from)
	}
}

// attributeOoO flushes one out-of-order instruction's attribution into
// the lane's account and resets it.  New cycles are (acctPrev, issue];
// the clamped ladder covers exactly those plus the shared floor cycle,
// which the binding constraint donates back to CauseIssued (see
// attribute).  Bandwidth saturation never empties a cycle, so its
// deferral cycles stay charged to the limit, and any uncovered remainder
// (the first event only) is unconstrained issue.
func (l *gangLane) attributeOoO(at *attribution, class uint8, nullified bool, issue int64) {
	a := l.acct
	a.Fetched[class]++
	if nullified {
		a.Nullified[class]++
	}
	if issue > l.acctPrev {
		want := issue - l.acctPrev
		var got int64
		for _, n := range at.inc {
			got += n
		}
		switch at.last {
		case obs.CauseIssueWidth, obs.CauseBranchLimit, obs.CauseRenameStall, obs.CauseWindowFull:
			if got < want {
				at.inc[obs.CauseIssued] += want - got
			}
		default:
			at.inc[obs.CauseIssued]++
			got++
			if got > want {
				at.inc[at.last] -= got - want
			} else if got < want {
				at.inc[obs.CauseIssued] += want - got
			}
		}
		for c, n := range at.inc {
			a.Breakdown[c] += n
		}
		l.acctPrev = issue
	}
	*at = attribution{}
}
