package core

import (
	"testing"

	"predication/internal/asm"
	"predication/internal/bench"
	"predication/internal/machine"
)

// TestUnrolledCompilesAreDeterministic: with loop unrolling on, compiling
// a kernel twice must give the same listing.  Unrolling used to clone loop
// bodies in map order and to order equal-sized loops by map iteration, so
// the copies' block IDs, and the code laid out from them, changed from run
// to run.
func TestUnrolledCompilesAreDeterministic(t *testing.T) {
	for _, k := range bench.All() {
		for _, m := range []Model{Superblock, FullPred} {
			opts := DefaultOptions(machine.Issue8Br1())
			opts.Unroll.Factor = 4
			var listings [2]string
			for i := range listings {
				c, err := Compile(k.Build(), m, opts)
				if err != nil {
					t.Fatalf("%s %v: %v", k.Name, m, err)
				}
				listings[i] = asm.Format(c.Prog)
			}
			if listings[0] != listings[1] {
				t.Errorf("%s %v: two unrolled compiles gave different listings", k.Name, m)
			}
		}
	}
}
