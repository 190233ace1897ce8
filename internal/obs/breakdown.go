package obs

import (
	"encoding/json"
	"fmt"
	"strings"
)

// Cause indexes the cycle-accounting categories.  Every cycle of a
// simulated run is attributed to exactly one cause: unconstrained issue
// (CauseIssued), bandwidth saturation (the cycle issued instructions but
// turned another away — CauseIssueWidth/CauseBranchLimit, which by
// construction never empty a cycle), or an empty stall charged to the
// constraint that blocked the next instruction.
type Cause uint8

// Cycle-accounting categories in stable reporting order.
const (
	// CauseIssued counts cycles in which instructions issued and none was
	// turned away.
	CauseIssued Cause = iota
	// CauseIssueWidth: the cycle issued a full issue-width of instructions
	// and deferred at least one more.
	CauseIssueWidth
	// CauseBranchLimit: the branch-issue-bandwidth limit deferred a branch
	// into this cycle.
	CauseBranchLimit
	// CauseRegInterlock: a source register was not ready (producer latency,
	// excluding any data-cache miss share).
	CauseRegInterlock
	// CausePredInterlock: the guard predicate was not ready (the predicate
	// define-to-use distance the paper's §2.1 analyzes).
	CausePredInterlock
	// CauseMispredict: the fetch redirect after a branch misprediction.
	CauseMispredict
	// CauseTakenRedirect: the configured taken-branch bubble of a correctly
	// predicted taken branch (0 on the paper's BTB front end).
	CauseTakenRedirect
	// CauseICache: instruction-cache miss cycles blocking fetch.
	CauseICache
	// CauseDCache: data-cache miss share of a load consumer's wait.
	CauseDCache
	// CauseWindowFull: the out-of-order instruction window had no free
	// entry — dispatch waited for the oldest in-flight instruction to
	// issue (in-order runs never report this cause).
	CauseWindowFull
	// CauseRenameStall: the in-order rename/dispatch stage was at its
	// per-cycle bandwidth limit (out-of-order runs only; the in-order
	// model has no separate dispatch stage).
	CauseRenameStall

	// NumCauses is the number of accounting categories.
	NumCauses
)

var causeNames = [NumCauses]string{
	CauseIssued:        "issue",
	CauseIssueWidth:    "issue_width",
	CauseBranchLimit:   "branch_limit",
	CauseRegInterlock:  "reg_interlock",
	CausePredInterlock: "pred_interlock",
	CauseMispredict:    "mispredict",
	CauseTakenRedirect: "taken_redirect",
	CauseICache:        "icache_miss",
	CauseDCache:        "dcache_miss",
	CauseWindowFull:    "window_full",
	CauseRenameStall:   "rename_stall",
}

// String returns the category name used in reports and JSON output.
func (c Cause) String() string {
	if c < NumCauses {
		return causeNames[c]
	}
	return "unknown"
}

// CauseNames lists the category names in reporting order.
func CauseNames() []string {
	names := make([]string, NumCauses)
	for i := range names {
		names[i] = Cause(i).String()
	}
	return names
}

// Breakdown is the per-cause cycle decomposition of one simulated run,
// indexed by Cause.  Its invariant — checked by Verify and enforced by the
// experiment harness — is that the categories sum exactly to the run's
// total cycle count: every cycle is attributed to exactly one cause.
type Breakdown [NumCauses]int64

// Total sums every category; on a consistent account it equals the run's
// Stats.Cycles.
func (b *Breakdown) Total() int64 {
	var t int64
	for _, v := range b {
		t += v
	}
	return t
}

// Verify checks the accounting invariant against the run's cycle count.
func (b *Breakdown) Verify(cycles int64) error {
	if t := b.Total(); t != cycles {
		return fmt.Errorf("obs: cycle accounting broken: breakdown sums to %d, run took %d cycles (%s)",
			t, cycles, b)
	}
	for c, v := range b {
		if v < 0 {
			return fmt.Errorf("obs: cycle accounting broken: negative %s count %d", Cause(c), v)
		}
	}
	return nil
}

// String renders the nonzero categories compactly.
func (b *Breakdown) String() string {
	var sb strings.Builder
	for c, v := range b {
		if v == 0 {
			continue
		}
		if sb.Len() > 0 {
			sb.WriteString(" ")
		}
		fmt.Fprintf(&sb, "%s=%d", Cause(c), v)
	}
	if sb.Len() == 0 {
		return "empty"
	}
	return sb.String()
}

// MarshalJSON renders the breakdown as an object keyed by category name
// plus a "total" field, the schema validated by the CI smoke stage.
func (b Breakdown) MarshalJSON() ([]byte, error) {
	m := make(map[string]int64, NumCauses+1)
	for c, v := range b {
		m[Cause(c).String()] = v
	}
	m["total"] = b.Total()
	return json.Marshal(m)
}

// UnmarshalJSON accepts the MarshalJSON schema (unknown keys, including
// "total", are ignored; the caller re-verifies the invariant).
func (b *Breakdown) UnmarshalJSON(data []byte) error {
	var m map[string]int64
	if err := json.Unmarshal(data, &m); err != nil {
		return err
	}
	for c := Cause(0); c < NumCauses; c++ {
		b[c] = m[c.String()]
	}
	return nil
}

// MixEntry is one instruction class's dynamic population.
type MixEntry struct {
	Class     string `json:"class"`
	Fetched   int64  `json:"fetched"`
	Nullified int64  `json:"nullified"`
}

// CycleAccount collects everything the instrumented simulator attributes
// per run: the cycle breakdown plus the fetched and nullified dynamic
// instruction counts per opcode class.  Attach one to a simulator with
// sim.(*Simulator).Instrument before feeding events.
type CycleAccount struct {
	Breakdown Breakdown
	// Fetched counts dynamic instructions per class, including nullified
	// ones (they occupy fetch and issue bandwidth).
	Fetched [NumClasses]int64
	// Nullified counts the guard-suppressed subset per class.
	Nullified [NumClasses]int64
}

// MarshalJSON renders the account as its breakdown plus the instruction
// mix, the stable schema embedded in JSON reports.
func (a *CycleAccount) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		Breakdown Breakdown  `json:"breakdown"`
		Mix       []MixEntry `json:"mix"`
	}{a.Breakdown, a.Mix()})
}

// Mix returns the instruction-mix histogram in class order, dropping
// classes that never occurred.
func (a *CycleAccount) Mix() []MixEntry {
	var mix []MixEntry
	for c := InstrClass(0); c < NumClasses; c++ {
		if a.Fetched[c] == 0 && a.Nullified[c] == 0 {
			continue
		}
		mix = append(mix, MixEntry{Class: c.String(), Fetched: a.Fetched[c], Nullified: a.Nullified[c]})
	}
	return mix
}

// Verify checks the account against the run's aggregate statistics: the
// breakdown must sum to the cycle count, and the mix histograms must sum
// to the fetched and nullified instruction totals.
func (a *CycleAccount) Verify(cycles, instrs, nullified int64) error {
	if err := a.Breakdown.Verify(cycles); err != nil {
		return err
	}
	var f, n int64
	for c := InstrClass(0); c < NumClasses; c++ {
		f += a.Fetched[c]
		n += a.Nullified[c]
	}
	if f != instrs {
		return fmt.Errorf("obs: instruction mix broken: classes sum to %d fetched, run fetched %d", f, instrs)
	}
	if n != nullified {
		return fmt.Errorf("obs: nullification histogram broken: classes sum to %d, run nullified %d", n, nullified)
	}
	return nil
}
