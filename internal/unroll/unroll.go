// Package unroll implements CFG-level loop unrolling.
//
// The paper's §5 expects "more advanced compiler optimization techniques"
// to increase both models' gains; unrolling is the canonical one for this
// pipeline: replicating a loop body U times before hyperblock formation
// lets one hyperblock cover U iterations, amortizing the loop branch and
// multiplying the rarely-taken exits available to branch combining (the
// mechanism behind extreme branch reductions like the paper's cmp).
//
// The transformation is trip-count agnostic and safe for any natural
// loop: the body is cloned U-1 times, each copy's back edges retarget the
// next copy's header, and the last copy's back edges return to the
// original header.  Every copy re-evaluates its own loop condition, so
// arbitrary (non-counted) loops keep their semantics; exits keep their
// original targets.
package unroll

import (
	"slices"

	"predication/internal/cfg"
	"predication/internal/ir"
)

// Params selects which loops unroll and how much.
type Params struct {
	// Factor is the total number of body copies (1 disables unrolling).
	Factor int
	// MaxBodyInstrs bounds the size of loops worth unrolling.
	MaxBodyInstrs int
	// MinCount is the minimum header execution count.
	MinCount int64
}

// DefaultParams returns a moderate configuration (disabled: Factor 1; the
// extension experiments sweep the factor).
func DefaultParams() Params {
	return Params{Factor: 1, MaxBodyInstrs: 48, MinCount: 64}
}

// Apply unrolls eligible innermost loops in every function.  It returns
// the number of loops unrolled.  When a profile is supplied, cloned blocks
// and branches inherit their originals' counts so downstream
// profile-guided passes see consistent ratios.
func Apply(p *ir.Program, prof *cfg.Profile, params Params) int {
	if params.Factor <= 1 {
		return 0
	}
	unrolled := 0
	for _, f := range p.Funcs {
		unrolled += applyFunc(f, prof, params)
	}
	return unrolled
}

func applyFunc(f *ir.Func, prof *cfg.Profile, params Params) int {
	g := cfg.NewGraph(f)
	loops := g.NaturalLoops()
	inLoop := map[int]int{} // block -> number of loops containing it
	for _, l := range loops {
		for id := range l.Blocks {
			inLoop[id]++
		}
	}
	unrolled := 0
	for _, l := range loops {
		// Innermost only: every body block belongs to exactly this loop.
		innermost := true
		size := 0
		hazard := false
		for id := range l.Blocks {
			if inLoop[id] != 1 {
				innermost = false
			}
			b := f.Blocks[id]
			size += len(b.Instrs)
			for _, in := range b.Instrs {
				if in.Op == ir.JSR || in.Op == ir.Ret || in.Op == ir.Halt {
					hazard = true
				}
			}
		}
		if !innermost || hazard || size > params.MaxBodyInstrs {
			continue
		}
		if prof != nil && prof.Weight(f.Blocks[l.Header]) < params.MinCount {
			continue
		}
		unrollLoop(f, prof, l, params.Factor)
		unrolled++
	}
	return unrolled
}

// unrollLoop clones the loop body factor-1 times and rechains back edges.
// Bodies are cloned in block-ID order, so the copies' IDs, and with them
// the code layout, do not depend on map iteration order.
func unrollLoop(f *ir.Func, prof *cfg.Profile, l *cfg.Loop, factor int) {
	body := make([]int, 0, len(l.Blocks))
	for id := range l.Blocks {
		body = append(body, id)
	}
	slices.Sort(body)
	// copies[k] maps original block ID -> copy-k block (copy 0 is the
	// original).
	copies := make([]map[int]int, factor)
	copies[0] = map[int]int{}
	for _, id := range body {
		copies[0][id] = id
	}
	for k := 1; k < factor; k++ {
		copies[k] = map[int]int{}
		for _, id := range body {
			ob := f.Blocks[id]
			nb := f.NewBlock()
			nb.Name = ob.Name + ".u"
			nb.Fall = ob.Fall
			for _, in := range ob.Instrs {
				cp := in.Clone()
				nb.Instrs = append(nb.Instrs, cp)
				if prof != nil {
					if n, ok := prof.Taken[in]; ok {
						prof.Taken[cp] = n
					}
					if n, ok := prof.NotTaken[in]; ok {
						prof.NotTaken[cp] = n
					}
				}
			}
			copies[k][id] = nb.ID
			if prof != nil {
				prof.BlockCount[nb] = prof.BlockCount[ob]
				prof.FallExit[nb] = prof.FallExit[ob]
			}
		}
	}
	// Rewire each copy: internal edges stay within the copy; back edges
	// (to the header) go to the NEXT copy's header (the last copy wraps to
	// the original header).
	for k := 0; k < factor; k++ {
		nextHeader := l.Header
		if k+1 < factor {
			nextHeader = copies[k+1][l.Header]
		}
		for _, id := range body {
			b := f.Blocks[copies[k][id]]
			for _, in := range b.Instrs {
				switch in.Op {
				case ir.Jump, ir.BrEQ, ir.BrNE, ir.BrLT, ir.BrLE, ir.BrGT, ir.BrGE:
					if in.Target == l.Header {
						in.Target = nextHeader
					} else if c, ok := copies[k][in.Target]; ok {
						in.Target = c
					}
					// Exits keep their original targets.
				}
			}
			if b.Fall == l.Header {
				b.Fall = nextHeader
			} else if c, ok := copies[k][b.Fall]; ok {
				b.Fall = c
			}
		}
	}
}
