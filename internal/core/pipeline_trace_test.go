package core

import (
	"testing"

	"predication/internal/bench"
	"predication/internal/machine"
	"predication/internal/obs"
)

// TestPipelineTraceRecordsStages: an attached obs.PipelineTrace sees every
// stage the model runs, in pipeline order, with a final snapshot matching
// the emitted program and hyperblock sizes for the predicated models.
func TestPipelineTraceRecordsStages(t *testing.T) {
	k, _ := bench.ByName("wc")
	for _, model := range []Model{Superblock, CondMove, FullPred} {
		opts := DefaultOptions(machine.Issue8Br1())
		opts.Pipeline = obs.NewPipelineTrace()
		c, err := Compile(k.Build(), model, opts)
		if err != nil {
			t.Fatalf("%v: %v", model, err)
		}
		tr := opts.Pipeline
		if len(tr.Stages) == 0 {
			t.Fatalf("%v: no stages recorded", model)
		}
		names := make([]string, len(tr.Stages))
		seen := map[string]bool{}
		for i, st := range tr.Stages {
			names[i] = st.Stage
			seen[st.Stage] = true
			if st.WallSeconds < 0 {
				t.Errorf("%v: stage %s has negative wall time", model, st.Stage)
			}
		}
		if names[0] != "normalize" || names[1] != "profile" {
			t.Errorf("%v: stage order starts %v", model, names[:2])
		}
		switch model {
		case Superblock:
			if !seen["superblock-formation"] || seen["hyperblock-formation"] {
				t.Errorf("%v: wrong formation stages: %v", model, names)
			}
			if len(tr.HyperblockSizes) != 0 {
				t.Errorf("%v: hyperblock sizes recorded: %v", model, tr.HyperblockSizes)
			}
		case CondMove:
			if !seen["partial-conversion"] || !seen["peephole"] {
				t.Errorf("%v: missing conversion stages: %v", model, names)
			}
		case FullPred:
			if !seen["hyperblock-formation"] || seen["partial-conversion"] {
				t.Errorf("%v: wrong stages: %v", model, names)
			}
		}
		if model != Superblock {
			if len(tr.HyperblockSizes) == 0 {
				t.Errorf("%v: no hyperblock sizes recorded", model)
			}
			for _, n := range tr.HyperblockSizes {
				if n <= 0 {
					t.Errorf("%v: empty hyperblock head recorded", model)
				}
			}
		}
		// The final snapshot describes the program Compile returned.
		final := tr.Stages[len(tr.Stages)-1].IR
		if got := obs.SnapshotIR(c.Prog); got != final {
			t.Errorf("%v: final snapshot %+v != emitted program %+v", model, final, got)
		}
		if model == FullPred && final.PredDefines == 0 {
			t.Errorf("full predication emitted no predicate defines")
		}
	}
}
