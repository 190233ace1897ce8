package cfg

import "predication/internal/ir"

// Profile records dynamic execution frequencies gathered by a profiling
// emulation run.  Superblock and hyperblock formation use it to select
// likely paths.  Counts are keyed by instruction and block pointers, so a
// profile is only meaningful for the exact Program object that was
// profiled; the compilation pipeline profiles its private clone before
// transforming it.
type Profile struct {
	// BlockCount is the number of times each block was entered.
	BlockCount map[*ir.Block]int64
	// Taken / NotTaken count outcomes of each executed branch instruction
	// (guarded jumps count as taken when the guard is true).
	Taken, NotTaken map[*ir.Instr]int64
	// FallExit counts exits from the block via its end fallthrough.
	FallExit map[*ir.Block]int64
}

// NewProfile creates an empty profile.
func NewProfile() *Profile {
	return &Profile{
		BlockCount: map[*ir.Block]int64{},
		Taken:      map[*ir.Instr]int64{},
		NotTaken:   map[*ir.Instr]int64{},
		FallExit:   map[*ir.Block]int64{},
	}
}

// Weight returns the execution count of a block.
func (p *Profile) Weight(b *ir.Block) int64 { return p.BlockCount[b] }

// TakenProb returns the probability that the branch was taken, and the
// total execution count of the branch.
func (p *Profile) TakenProb(in *ir.Instr) (float64, int64) {
	t, n := p.Taken[in], p.NotTaken[in]
	total := t + n
	if total == 0 {
		return 0, 0
	}
	return float64(t) / float64(total), total
}
