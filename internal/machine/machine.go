// Package machine describes target processor configurations: issue width,
// branch issue slots, operation latencies, branch prediction, and caches.
// The configurations mirror §4.1 of the paper: k-issue in-order processors
// with no restriction on the instruction mix except branches, HP PA-RISC
// 7100 instruction latencies, a 1K-entry BTB with 2-bit counters and a
// 2-cycle misprediction penalty, and either perfect caches or 64K
// direct-mapped instruction/data caches with 64-byte blocks and a 12-cycle
// miss penalty (write-through, no write-allocate).
package machine

import (
	"fmt"

	"predication/internal/ir"
)

// CacheConfig describes one direct-mapped cache.
type CacheConfig struct {
	SizeBytes  int
	BlockSize  int
	MissCycles int
}

// Lines returns the number of cache lines.
func (c CacheConfig) Lines() int { return c.SizeBytes / c.BlockSize }

// Config is a complete processor configuration.
type Config struct {
	Name        string
	IssueWidth  int
	BranchSlots int

	// PerfectCache disables both cache models.
	PerfectCache bool
	ICache       CacheConfig
	DCache       CacheConfig

	BTBEntries        int
	MispredictPenalty int

	// TakenBranchBubble is the fetch redirect cost (in cycles) of a
	// correctly predicted taken branch.  The paper's BTB supplies the
	// target at fetch, so correctly predicted taken branches cost nothing
	// (only mispredictions pay the 2-cycle penalty); the field exists for
	// ablation studies of weaker front ends.
	TakenBranchBubble int

	// WritebackSuppression models the alternative suppression point
	// discussed in §2.1: when true, predicated instructions are nullified
	// in the write-back stage, so a predicate define and a dependent
	// predicated instruction may issue in the same cycle (0-cycle
	// define-to-use distance).  The paper's experiments use decode/issue
	// suppression (false), which requires a 1-cycle distance.
	WritebackSuppression bool

	// Gshare selects a global-history XOR predictor in place of the
	// paper's per-address BTB counters — a predictor-sensitivity
	// counterfactual: stronger prediction shrinks the baseline's
	// misprediction bill and with it part of predication's advantage.
	Gshare bool

	// PredicateDistance is the define-to-use distance in cycles for
	// decode/issue suppression.  The paper notes the distance "may be
	// larger for deeper pipelines or if bypass is not available for
	// predicate registers" (§2.1); 0 leaves the default of 1.
	PredicateDistance int

	// OoO selects the out-of-order issue-window scheduler instead of the
	// paper's in-order issue model: instructions dispatch in order into a
	// WindowSize-entry window, rename away WAW/WAR ordering, and issue
	// oldest-first as operands and issue slots allow.  Fetch and retire
	// stay in order.  See docs/SIMULATOR.md, "Out-of-order issue window".
	OoO bool

	// WindowSize is the instruction-window entry count for OoO
	// configurations (1 to MaxWindowSize when OoO is set, 0 otherwise).
	// A window of 1 degenerates to the in-order model: dispatch waits for
	// the previous instruction to issue.
	WindowSize int
}

// MaxWindowSize bounds WindowSize.  The simulator allocates its window
// and issue-slot rings up front, about 40 bytes per entry, so a window
// named in a request must not size them; 4096 is 128 times the 32-entry
// window every workload uses.
const MaxWindowSize = 4096

// Validate checks the constraints the simulators assume.  Geometry: BTB
// entry counts and cache line/block counts must be powers of two, because
// set selection is `index & (n-1)` — a non-power-of-two count would
// silently alias entries instead of failing.  Cache geometry is only
// checked when the caches are modeled (PerfectCache false).  Bandwidth:
// IssueWidth and BranchSlots must be at least 1 — a zero width would make
// the simulator's slot-allocation loop spin forever (slots reset to zero
// on every bumped cycle, so `slots < width` never becomes true).  Penalty
// fields must be non-negative, and the OoO window size must be consistent
// with the OoO flag and at most MaxWindowSize.
func (c Config) Validate() error {
	if c.IssueWidth < 1 {
		return fmt.Errorf("machine %s: IssueWidth = %d, must be at least 1 (a zero-width machine can never issue)", c.Name, c.IssueWidth)
	}
	if c.BranchSlots < 1 {
		return fmt.Errorf("machine %s: BranchSlots = %d, must be at least 1 (a branch could never issue)", c.Name, c.BranchSlots)
	}
	if c.MispredictPenalty < 0 {
		return fmt.Errorf("machine %s: MispredictPenalty = %d, must be non-negative", c.Name, c.MispredictPenalty)
	}
	if c.TakenBranchBubble < 0 {
		return fmt.Errorf("machine %s: TakenBranchBubble = %d, must be non-negative", c.Name, c.TakenBranchBubble)
	}
	if c.PredicateDistance < 0 {
		return fmt.Errorf("machine %s: PredicateDistance = %d, must be non-negative", c.Name, c.PredicateDistance)
	}
	if c.OoO {
		if c.WindowSize < 1 || c.WindowSize > MaxWindowSize {
			return fmt.Errorf("machine %s: OoO set but WindowSize = %d, must be between 1 and %d", c.Name, c.WindowSize, MaxWindowSize)
		}
	} else if c.WindowSize != 0 {
		return fmt.Errorf("machine %s: WindowSize = %d without OoO (the in-order model has no instruction window)", c.Name, c.WindowSize)
	}
	if !powerOfTwo(c.BTBEntries) {
		return fmt.Errorf("machine %s: BTBEntries = %d, must be a power of two (BTB set index is masked)", c.Name, c.BTBEntries)
	}
	if !c.PerfectCache {
		if err := c.ICache.validate(c.Name, "ICache"); err != nil {
			return err
		}
		if err := c.DCache.validate(c.Name, "DCache"); err != nil {
			return err
		}
	}
	return nil
}

func (c CacheConfig) validate(machineName, which string) error {
	if c.MissCycles < 0 {
		return fmt.Errorf("machine %s: %s.MissCycles = %d, must be non-negative", machineName, which, c.MissCycles)
	}
	if !powerOfTwo(c.BlockSize) {
		return fmt.Errorf("machine %s: %s.BlockSize = %d, must be a power of two (block offset is a shift)", machineName, which, c.BlockSize)
	}
	if c.SizeBytes%c.BlockSize != 0 || !powerOfTwo(c.Lines()) {
		return fmt.Errorf("machine %s: %s geometry %dB/%dB gives %d lines, must be a power of two (line index is masked)", machineName, which, c.SizeBytes, c.BlockSize, c.Lines())
	}
	return nil
}

func powerOfTwo(n int) bool { return n > 0 && n&(n-1) == 0 }

// PredDist returns the effective predicate define-to-use distance.
func (c Config) PredDist() int {
	if c.WritebackSuppression {
		return 0
	}
	if c.PredicateDistance > 0 {
		return c.PredicateDistance
	}
	return 1
}

// default64K is the paper's cache: 64K direct mapped, 64-byte blocks,
// 12-cycle miss penalty.
var default64K = CacheConfig{SizeBytes: 64 << 10, BlockSize: 64, MissCycles: 12}

func base(name string, issue, branches int, perfect bool) Config {
	return Config{
		Name:              name,
		IssueWidth:        issue,
		BranchSlots:       branches,
		PerfectCache:      perfect,
		ICache:            default64K,
		DCache:            default64K,
		BTBEntries:        1024,
		MispredictPenalty: 2,
		TakenBranchBubble: 0,
	}
}

// Issue8Br1 is the 8-issue, 1-branch, perfect-cache processor (Figure 8).
func Issue8Br1() Config { return base("issue8-br1", 8, 1, true) }

// Issue8Br2 is the 8-issue, 2-branch, perfect-cache processor (Figure 9).
func Issue8Br2() Config { return base("issue8-br2", 8, 2, true) }

// Issue4Br1 is the 4-issue, 1-branch, perfect-cache processor (Figure 10).
func Issue4Br1() Config { return base("issue4-br1", 4, 1, true) }

// Issue8Br1Cache is the 8-issue, 1-branch processor with 64K instruction
// and data caches (Figure 11).
func Issue8Br1Cache() Config { return base("issue8-br1-64k", 8, 1, false) }

// Issue1 is the 1-issue baseline processor used as the speedup denominator.
func Issue1() Config { return base("issue1", 1, 1, true) }

// Issue1Cache is the 1-issue baseline with 64K caches (denominator for
// Figure 11).
func Issue1Cache() Config { return base("issue1-64k", 1, 1, false) }

// configs enumerates every named configuration constructor, in the
// reporting order of the paper's figures.
var configs = []func() Config{Issue1, Issue4Br1, Issue8Br1, Issue8Br2, Issue8Br1Cache, Issue1Cache}

// ByName returns the named configuration.  The names are the ones the
// CLI flags and the serving API accept: issue1, issue4-br1, issue8-br1,
// issue8-br2, issue8-br1-64k, issue1-64k.
func ByName(name string) (Config, error) {
	for _, mk := range configs {
		if c := mk(); c.Name == name {
			return c, nil
		}
	}
	return Config{}, fmt.Errorf("unknown machine %q (want one of %v)", name, Names())
}

// Names lists every named configuration.
func Names() []string {
	names := make([]string, len(configs))
	for i, mk := range configs {
		names[i] = mk().Name
	}
	return names
}

// Latency returns the issue-to-result latency in cycles of an opcode on the
// modeled HP PA-7100-like pipeline (load latency is the cache-hit case).
func Latency(op ir.Op) int {
	switch op {
	case ir.Mul:
		return 2
	case ir.Div, ir.Rem:
		return 8
	case ir.AddF, ir.SubF, ir.MulF, ir.AbsF, ir.CvtIF, ir.CvtFI:
		return 2
	case ir.DivF:
		return 8
	case ir.CmpEQF, ir.CmpNEF, ir.CmpLTF, ir.CmpLEF, ir.CmpGTF, ir.CmpGEF:
		return 2
	case ir.Load:
		return 2
	default:
		return 1
	}
}
