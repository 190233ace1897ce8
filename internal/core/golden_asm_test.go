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

// goldenAsmLine compiles one cell and renders its golden line: the
// coordinates, the SHA-256 of the compiled listing, and its instruction
// and live-block counts (so a mismatch says at a glance whether the shape
// changed or only the code).
func goldenAsmLine(kernel string, mi, ti int) (string, error) {
	k, err := bench.ByName(kernel)
	if err != nil {
		return "", err
	}
	m, mc := goldenAsmModels[mi], goldenAsmTargets[ti]
	c, err := Compile(k.Build(), m.model, DefaultOptions(mc))
	if err != nil {
		return "", fmt.Errorf("%s %s %s: %w", kernel, m.name, mc.Name, err)
	}
	blocks := 0
	for _, f := range c.Prog.Funcs {
		blocks += len(f.LiveBlocks(nil))
	}
	sum := sha256.Sum256([]byte(asm.Format(c.Prog)))
	return fmt.Sprintf("%s %s %s %x %d %d", kernel, m.name, mc.Name, sum,
		c.Prog.NumInstrs(), blocks), nil
}

// goldenAsmLines compiles every kernel × model × target cell, in file
// order, on a small worker pool.
func goldenAsmLines(t *testing.T) []string {
	type cell struct {
		kernel string
		mi, ti int
	}
	var cells []cell
	for _, k := range bench.All() {
		for mi := range goldenAsmModels {
			for ti := range goldenAsmTargets {
				cells = append(cells, cell{k.Name, mi, ti})
			}
		}
	}
	lines := make([]string, len(cells))
	errs := make([]error, len(cells))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < min(runtime.GOMAXPROCS(0), 4); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				c := cells[i]
				lines[i], errs[i] = goldenAsmLine(c.kernel, c.mi, c.ti)
			}
		}()
	}
	for i := range cells {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	return lines
}

// TestGoldenAsm pins the compiler's output: the listing of every kernel
// compiled under every model for every scheduling target must hash to the
// recorded value.  It is the contract that lets compile-time work change
// how the passes compute without changing what they emit.  Regenerate with
//
//	go test ./internal/core -run TestGoldenAsm -update
//
// and only for an intended change to the generated code.
func TestGoldenAsm(t *testing.T) {
	lines := goldenAsmLines(t)
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
	if len(want) != len(lines) {
		t.Fatalf("golden file has %d cells, compiler produced %d", len(want), len(lines))
	}
	for i := range lines {
		if lines[i] != want[i] {
			t.Errorf("listing changed:\n got %s\nwant %s", lines[i], want[i])
		}
	}
}
