// Command predfuzz is the cross-model differential fuzzer: it feeds
// progen-generated programs (flat and nested loop shapes, interleaved by
// seed parity) through the superblock, conditional-move, full-predication,
// and guard-instruction pipelines and checks every compiled program
// against the reference emulation (internal/difftest).  Divergences are
// delta-minimized and written as self-contained .psasm repro artifacts.
//
// Usage:
//
//	predfuzz -seeds 500                  # fuzz seeds 1..500
//	predfuzz -seeds 100 -start 1000     # a different seed window
//	predfuzz -seeds 20 -inject          # exercise the repro path itself
//
// The exit status is non-zero when any divergence, oracle error, or
// worker panic occurred.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"

	"predication/internal/core"
	"predication/internal/difftest"
	"predication/internal/ir"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "predfuzz:", err)
		os.Exit(1)
	}
}

// seedOutcome is one seed's verdict, reported from a worker.
type seedOutcome struct {
	seed uint64
	// div is the minimized divergence (nil when the models agree).
	div *difftest.Divergence
	// repro is the artifact path for div.
	repro string
	// err is an oracle failure or a recovered worker panic.
	err error
}

// run parses args, fuzzes the seed window with a worker pool, and writes
// the report to out.  The returned error summarizes any failures (the
// caller turns it into a non-zero exit).
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("predfuzz", flag.ContinueOnError)
	fs.SetOutput(out)
	seeds := fs.Int("seeds", 100, "number of seeds to fuzz")
	start := fs.Uint64("start", 1, "first seed of the window")
	outDir := fs.String("out", "testdata/repros", "directory for repro artifacts")
	parallel := fs.Int("parallel", runtime.NumCPU(), "worker goroutines")
	inject := fs.Bool("inject", false,
		"inject a deliberate full-predication miscompile (exercises detection, minimization, and repro writing)")
	verify := fs.Bool("verify", true, "run the per-stage IR verifier during compilation")
	verbose := fs.Bool("v", false, "log every seed, not just failures")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *seeds < 1 {
		return fmt.Errorf("-seeds must be positive, got %d", *seeds)
	}
	if *parallel < 1 {
		*parallel = 1
	}

	work := make(chan uint64)
	results := make(chan seedOutcome)
	var wg sync.WaitGroup
	for w := 0; w < *parallel; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seed := range work {
				results <- fuzzSeed(seed, *outDir, *inject, *verify)
			}
		}()
	}
	go func() {
		for i := 0; i < *seeds; i++ {
			work <- *start + uint64(i)
		}
		close(work)
		wg.Wait()
		close(results)
	}()

	var failures []seedOutcome
	divergences, panics, oracleErrs := 0, 0, 0
	for r := range results {
		switch {
		case r.div != nil:
			divergences++
			failures = append(failures, r)
			fmt.Fprintf(out, "DIVERGENCE %v\n  repro: %s\n", r.div, r.repro)
		case r.err != nil:
			if _, isPanic := r.err.(*workerPanic); isPanic {
				panics++
			} else {
				oracleErrs++
			}
			failures = append(failures, r)
			fmt.Fprintf(out, "FAIL seed %d: %v\n", r.seed, r.err)
		case *verbose:
			fmt.Fprintf(out, "ok seed %d\n", r.seed)
		}
	}
	sort.Slice(failures, func(i, j int) bool { return failures[i].seed < failures[j].seed })

	fmt.Fprintf(out, "predfuzz: %d seeds [%d..%d], %d divergences, %d panics, %d oracle errors\n",
		*seeds, *start, *start+uint64(*seeds)-1, divergences, panics, oracleErrs)
	if len(failures) > 0 {
		return fmt.Errorf("%d of %d seeds failed (%d divergences, %d panics, %d oracle errors); repros under %s",
			len(failures), *seeds, divergences, panics, oracleErrs, *outDir)
	}
	return nil
}

// workerPanic wraps a panic recovered inside a fuzz worker.
type workerPanic struct {
	val   any
	stack []byte
}

func (p *workerPanic) Error() string {
	return fmt.Sprintf("recovered panic: %v\n%s", p.val, p.stack)
}

// fuzzSeed runs the oracle for one seed, recovering panics so a single
// bad seed cannot take down the whole run.  On divergence it minimizes
// and writes the repro artifact before reporting.
func fuzzSeed(seed uint64, outDir string, inject, verify bool) (outcome seedOutcome) {
	outcome.seed = seed
	defer func() {
		if r := recover(); r != nil {
			outcome.err = &workerPanic{val: r, stack: debug.Stack()}
		}
	}()

	opts := difftest.DefaultOptions()
	opts.Nested = seed%2 == 1
	opts.VerifyStages = verify
	if inject {
		opts.Mutate = injectAddOffByOne
	}
	d, err := difftest.Check(seed, opts)
	if err != nil {
		outcome.err = err
		return outcome
	}
	if d == nil {
		return outcome
	}
	difftest.Minimize(d, opts)
	path, werr := difftest.WriteRepro(outDir, d)
	if werr != nil {
		path = fmt.Sprintf("(failed to write: %v)", werr)
	}
	outcome.div = d
	outcome.repro = path
	return outcome
}

// injectAddOffByOne is the built-in miscompile used by -inject: it bumps
// every immediate-operand add in full-predication output by one.
// progen's loop counters have exactly that shape, so the corruption is
// always executed and always caught.
func injectAddOffByOne(p *ir.Program, model core.Model) {
	if model != core.FullPred {
		return
	}
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			if b == nil || b.Dead {
				continue
			}
			for _, in := range b.Instrs {
				if in.Op == ir.Add && in.B.IsImm {
					in.B.Imm++
				}
			}
		}
	}
}
