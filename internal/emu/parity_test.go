package emu_test

// parity_test.go pins the pre-decoded interpreter to the tree-walking
// reference interpreter it replaced.  That interpreter was retired after
// the two had matched event for event over every kernel and model; what it
// computed lives on in testdata/golden_events.txt and
// testdata/golden_profiles.txt, and these tests hold the emulator to it.
// Regenerate the files with
//
//	go test ./internal/emu -run 'TestFast' -update
//
// and only for an intended change to the emulator's semantics.  A
// separate guard pins the steady state at zero allocations per step.

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"predication/internal/bench"
	"predication/internal/cfg"
	"predication/internal/core"
	"predication/internal/emu"
	"predication/internal/ir"
	"predication/internal/machine"
	"predication/internal/sim"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata from the current emulator")

// fnv is an FNV-1a style running hash over 64-bit words.
type fnv uint64

func newFNV() fnv { return 14695981039346656037 }

func (h *fnv) add(v uint64) { *h = (*h ^ fnv(v)) * 1099511628211 }

// eventHash folds every event into a running hash, so a full trace
// comparison never materializes the (multi-million event) traces.  pc
// maps an event ID to its instruction's code address.
type eventHash struct {
	h  fnv
	n  int64
	pc []int32
}

func newEventHash(p *ir.Program) *eventHash {
	s := &eventHash{h: newFNV()}
	p.ForEachInstr(func(_ int, in *ir.Instr) { s.pc = append(s.pc, in.Addr) })
	return s
}

func (s *eventHash) EventBatch(evs []emu.Event) {
	for _, ev := range evs {
		s.h.add(uint64(uint32(ev.ID)))
		s.h.add(uint64(uint32(ev.Addr)))
		s.h.add(uint64(ev.Flags))
		s.h.add(uint64(uint32(s.pc[ev.ID])))
		s.n++
	}
}

// golden is one recorded reference file: the expected line per key (the
// first two fields of a line) and the lines this run produced.
type golden struct {
	path string
	want map[string]string
	got  []string
}

func loadGolden(t *testing.T, path string) *golden {
	t.Helper()
	g := &golden{path: path, want: map[string]string{}}
	if *update {
		return g
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := sc.Text(); line != "" {
			g.want[goldenKey(line)] = line
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return g
}

func goldenKey(line string) string {
	f := strings.Fields(line)
	return f[0] + " " + f[1]
}

// check records line and compares it with the recorded line for its key.
func (g *golden) check(t *testing.T, line string) {
	t.Helper()
	g.got = append(g.got, line)
	if *update {
		return
	}
	if want := g.want[goldenKey(line)]; want != line {
		t.Errorf("diverges from %s:\n  got  %s\n  want %s", g.path, line, want)
	}
}

// finish rewrites the file under -update; otherwise it checks that every
// recorded line was reproduced.
func (g *golden) finish(t *testing.T) {
	t.Helper()
	if *update {
		if err := os.WriteFile(g.path, []byte(strings.Join(g.got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if len(g.got) != len(g.want) {
		t.Errorf("produced %d lines, %s has %d", len(g.got), g.path, len(g.want))
	}
}

// memHash folds a final memory image.
func memHash(mem []int64) uint64 {
	h := newFNV()
	for _, w := range mem {
		h.add(uint64(w))
	}
	return uint64(h)
}

// TestFastMatchesLegacyAllKernels is the suite-wide differential test:
// every kernel × model must reproduce the reference interpreter's run —
// the event stream (hash over ID, Addr, Flags, the code address, and the
// count),
// the step count, and the final memory image.
func TestFastMatchesLegacyAllKernels(t *testing.T) {
	g := loadGolden(t, "testdata/golden_events.txt")
	target := machine.Issue8Br1()
	models := []core.Model{core.Superblock, core.CondMove, core.FullPred}
	for _, k := range bench.All() {
		for _, model := range models {
			t.Run(fmt.Sprintf("%s/%v", k.Name, model), func(t *testing.T) {
				c, err := core.Compile(k.Build(), model, core.DefaultOptions(target))
				if err != nil {
					t.Fatalf("compile: %v", err)
				}
				hash := newEventHash(c.Prog)
				res, err := emu.Run(c.Prog, emu.Options{Sink: hash})
				if err != nil {
					t.Fatalf("emulate: %v", err)
				}
				g.check(t, fmt.Sprintf("%s %s steps=%d events=%d trace=%#x mem=%#x",
					k.Name, strings.ReplaceAll(model.String(), " ", "_"),
					res.Steps, hash.n, uint64(hash.h), memHash(res.Mem)))
			})
		}
	}
	g.finish(t)
}

// TestFastProfileMatchesLegacy pins the dense-array profile counters to
// the counts the reference interpreter's map-based collection produced:
// every kernel's profile, folded in program order, plus the number of
// entries in each map.
func TestFastProfileMatchesLegacy(t *testing.T) {
	g := loadGolden(t, "testdata/golden_profiles.txt")
	for _, k := range bench.All() {
		p := k.Build()
		prof := cfg.NewProfile()
		if _, err := emu.Run(p, emu.Options{Profile: prof}); err != nil {
			t.Fatalf("%s: profiling run: %v", k.Name, err)
		}
		g.check(t, fmt.Sprintf("%s profile entries=%d/%d/%d/%d counts=%#x", k.Name,
			len(prof.BlockCount), len(prof.FallExit), len(prof.Taken), len(prof.NotTaken),
			profileHash(p, prof)))
	}
	g.finish(t)
}

// profileHash folds every profile counter in program order.
func profileHash(p *ir.Program, prof *cfg.Profile) uint64 {
	h := newFNV()
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			if b == nil {
				continue
			}
			h.add(uint64(prof.BlockCount[b]))
			h.add(uint64(prof.FallExit[b]))
			for _, in := range b.Instrs {
				h.add(uint64(prof.Taken[in]))
				h.add(uint64(prof.NotTaken[in]))
			}
		}
	}
	return uint64(h)
}

// TestFastPathSteadyStateZeroAllocs is the allocation gate: one full
// emulation of the wc kernel (~150k steps) streaming into a simulator must
// cost only the O(1) startup allocations — result, memory image, frame
// pool, run state — far below one alloc per step.
func TestFastPathSteadyStateZeroAllocs(t *testing.T) {
	k, err := bench.ByName("wc")
	if err != nil {
		t.Fatal(err)
	}
	c, err := core.Compile(k.Build(), core.FullPred, core.DefaultOptions(machine.Issue8Br1()))
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	code, err := emu.Decode(c.Prog)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	s := sim.NewTiming(c.Prog, machine.Issue8Br1())
	var steps int64
	allocs := testing.AllocsPerRun(2, func() {
		res, err := code.Run(emu.Options{Sink: s})
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		steps = res.Steps
	})
	if steps < 100_000 {
		t.Fatalf("kernel too short for a steady-state measurement: %d steps", steps)
	}
	// Startup allocations are O(1); 64 against >100k steps pins the loop
	// itself at zero allocations per step.
	if allocs > 64 {
		t.Errorf("Run allocated %.0f objects over %d steps; the hot loop must not allocate", allocs, steps)
	}
}
