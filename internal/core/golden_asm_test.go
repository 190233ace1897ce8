package core

import (
	"bufio"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"

	"predication/internal/asm"
	"predication/internal/bench"
	"predication/internal/machine"
)

var update = flag.Bool("update", false, "rewrite testdata/golden_asm.txt from the current compiler")

const goldenAsmPath = "testdata/golden_asm.txt"

// goldenAsmModels and goldenAsmTargets are the golden file's model and
// scheduling-target axes: every model, and every machine the paper's
// matrix schedules for (the cache variants reuse their base's schedule).
var goldenAsmModels = []struct {
	name  string
	model Model
}{{"superblock", Superblock}, {"cmov", CondMove}, {"full", FullPred}, {"guard", GuardInstr}}

var goldenAsmTargets = []machine.Config{
	machine.Issue1(), machine.Issue4Br1(), machine.Issue8Br1(), machine.Issue8Br2(),
}

// goldenAsmLine renders one cell's golden line: the coordinates, the
// SHA-256 of the compiled listing, and its instruction and live-block
// counts (so a mismatch says at a glance whether the shape changed or
// only the code).
func goldenAsmLine(kernel string, mi, ti int, c *Compiled) string {
	blocks := 0
	for _, f := range c.Prog.Funcs {
		blocks += len(f.LiveBlocks(nil))
	}
	sum := sha256.Sum256([]byte(asm.Format(c.Prog)))
	return fmt.Sprintf("%s %s %s %x %d %d", kernel, goldenAsmModels[mi].name,
		goldenAsmTargets[ti].Name, sum, c.Prog.NumInstrs(), blocks)
}

// compiledLines renders every cell of one kernel, in file order, each
// through its own Compile.
func compiledLines(k *bench.Kernel) ([]string, error) {
	var lines []string
	for mi, m := range goldenAsmModels {
		for ti, mc := range goldenAsmTargets {
			c, err := Compile(k.Build(), m.model, DefaultOptions(mc))
			if err != nil {
				return nil, fmt.Errorf("%s %s %s: %w", k.Name, m.name, mc.Name, err)
			}
			lines = append(lines, goldenAsmLine(k.Name, mi, ti, c))
		}
	}
	return lines, nil
}

// formedLines renders every cell of one kernel, in file order, from one
// Form per model family: the superblock form and the fully predicated
// one, from which the conditional-move form is derived and the guard
// listings are scheduled.  Formation gets a zero machine, which it never
// reads.
func formedLines(k *bench.Kernel) ([]string, error) {
	src := k.Build()
	fopts := DefaultOptions(machine.Config{})
	sb, err := Form(src, Superblock, fopts)
	if err != nil {
		return nil, fmt.Errorf("%s: superblock form: %w", k.Name, err)
	}
	full, err := Form(src, FullPred, fopts)
	if err != nil {
		return nil, fmt.Errorf("%s: full form: %w", k.Name, err)
	}
	forms := []*Formed{sb, nil, full, nil}
	for mi, m := range goldenAsmModels {
		if forms[mi] == nil {
			if forms[mi], err = full.Derive(m.model, fopts); err != nil {
				return nil, fmt.Errorf("%s: derive %s: %w", k.Name, m.name, err)
			}
		}
	}
	var lines []string
	for mi, m := range goldenAsmModels {
		for ti, mc := range goldenAsmTargets {
			c, err := forms[mi].Schedule(DefaultOptions(mc))
			if err != nil {
				return nil, fmt.Errorf("%s %s %s: %w", k.Name, m.name, mc.Name, err)
			}
			lines = append(lines, goldenAsmLine(k.Name, mi, ti, c))
		}
	}
	return lines, nil
}

// goldenAsmLines renders every kernel × model × target cell, in file
// order, with one of the two producers, one kernel per job on a small
// worker pool.
func goldenAsmLines(t *testing.T, produce func(*bench.Kernel) ([]string, error)) []string {
	kernels := bench.All()
	perKernel := make([][]string, len(kernels))
	errs := make([]error, len(kernels))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < min(runtime.GOMAXPROCS(0), 4); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				perKernel[i], errs[i] = produce(kernels[i])
			}
		}()
	}
	for i := range kernels {
		next <- i
	}
	close(next)
	wg.Wait()
	var lines []string
	for i, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, perKernel[i]...)
	}
	return lines
}

// TestGoldenAsm pins the compiler's output: the listing of every kernel
// compiled under every model for every scheduling target must hash to the
// recorded value.  It is the contract that lets compile-time work change
// how the passes compute without changing what they emit.  Every line is
// checked twice: through Compile, and through one Form per kernel × model
// family scheduled for each target (the path experiments.Run takes), which
// must emit the same listings.  Regenerate with
//
//	go test ./internal/core -run TestGoldenAsm -update
//
// and only for an intended change to the generated code.
func TestGoldenAsm(t *testing.T) {
	lines := goldenAsmLines(t, compiledLines)
	header := "# kernel model target sha256(asm.Format) instrs live_blocks"
	if *update {
		out := header + "\n" + strings.Join(lines, "\n") + "\n"
		if err := os.WriteFile(goldenAsmPath, []byte(out), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(goldenAsmPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if l := sc.Text(); l != "" && !strings.HasPrefix(l, "#") {
			want = append(want, l)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for _, path := range []struct {
		name  string
		lines []string
	}{{"Compile", lines}, {"Form+Schedule", goldenAsmLines(t, formedLines)}} {
		if len(want) != len(path.lines) {
			t.Fatalf("%s: golden file has %d cells, compiler produced %d", path.name, len(want), len(path.lines))
		}
		for i := range path.lines {
			if path.lines[i] != want[i] {
				t.Errorf("%s: listing changed:\n got %s\nwant %s", path.name, path.lines[i], want[i])
			}
		}
	}
}
