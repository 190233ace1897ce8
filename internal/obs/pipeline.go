package obs

import (
	"time"

	"predication/internal/ir"
)

// IRStats is a structural snapshot of a program, recorded after each
// compile-pipeline stage so stage-over-stage deltas show what every pass
// did to the code: how many predicate defines if-conversion inserted, how
// many branches it removed, how promotion changed the guarded population.
type IRStats struct {
	// Instrs counts static instructions across live blocks.
	Instrs int `json:"instrs"`
	// Blocks counts live basic blocks.
	Blocks int `json:"blocks"`
	// PredDefines counts the full-predication define family (pred,
	// pred_clear, pred_set) — the paper's dependence-height overhead.
	PredDefines int `json:"pred_defines"`
	// Guarded counts instructions carrying a real guard predicate.
	Guarded int `json:"guarded"`
	// Branches counts control-transfer instructions.
	Branches int `json:"branches"`
	// CondMoves counts the partial-predication family (cmov, cmov_com,
	// select).
	CondMoves int `json:"cond_moves"`
	// MaxBlockLen is the largest live block's instruction count (hyperblock
	// formation grows it; a proxy for formation aggressiveness).
	MaxBlockLen int `json:"max_block_len"`
}

// SnapshotIR measures the program.
func SnapshotIR(p *ir.Program) IRStats {
	var st IRStats
	for _, f := range p.Funcs {
		for _, b := range f.LiveBlocks(nil) {
			st.Blocks++
			if len(b.Instrs) > st.MaxBlockLen {
				st.MaxBlockLen = len(b.Instrs)
			}
			for _, in := range b.Instrs {
				st.Instrs++
				switch in.Op {
				case ir.PredDef, ir.PredClear, ir.PredSet:
					st.PredDefines++
				case ir.CMov, ir.CMovCom, ir.Select:
					st.CondMoves++
				}
				if in.Op.IsBranch() {
					st.Branches++
				}
				if in.Guard != ir.PNone {
					st.Guarded++
				}
			}
		}
	}
	return st
}

// StageRecord is one pipeline stage's measurement: what the stage cost in
// wall time and what the program looked like when it finished.
type StageRecord struct {
	Stage string `json:"stage"`
	// WallSeconds is the time from the previous record (or trace creation)
	// to this stage's completion — the stage's own cost when stages record
	// in pipeline order.
	WallSeconds float64 `json:"wall_seconds"`
	IR          IRStats `json:"ir"`
	// Shared marks a record copied from a formation another trace already
	// reports: the stage ran once for several listings (one formed
	// program scheduled per target), so only its unshared copy counts
	// toward the compile time spent.
	Shared bool `json:"shared,omitempty"`
}

// PipelineTrace records the per-stage progression of one compile.  Attach
// one via core.Options.Pipeline; core.Compile records after every stage it
// runs, so the stage list varies by model (partial-conversion only appears
// under the conditional-move pipeline, and so on).  A listing scheduled
// from a shared formed program starts its trace with Inherit.
type PipelineTrace struct {
	Stages []StageRecord `json:"stages"`
	// HyperblockSizes lists the instruction count of every hyperblock head
	// block at formation time (empty for the superblock model).
	HyperblockSizes []int `json:"hyperblock_sizes,omitempty"`

	last   time.Time
	handed bool // Inherit has copied this trace before
}

// NewPipelineTrace creates a trace whose first stage is timed from now.
func NewPipelineTrace() *PipelineTrace {
	return &PipelineTrace{last: time.Now()}
}

// Record appends a stage measurement.
func (t *PipelineTrace) Record(stage string, p *ir.Program) {
	now := time.Now()
	t.Stages = append(t.Stages, StageRecord{
		Stage:       stage,
		WallSeconds: now.Sub(t.last).Seconds(),
		IR:          SnapshotIR(p),
	})
	t.last = now
}

// Inherit appends the records and hyperblock sizes of from, the trace of
// the formation this trace's listing continues.  The first trace to
// inherit from a formation takes its records as they are; every later one
// gets them marked Shared, so the unshared records of all the traces sum
// to the compile time actually spent.
func (t *PipelineTrace) Inherit(from *PipelineTrace) {
	for _, st := range from.Stages {
		st.Shared = st.Shared || from.handed
		t.Stages = append(t.Stages, st)
	}
	t.HyperblockSizes = append(t.HyperblockSizes, from.HyperblockSizes...)
	from.handed = true
}
