package sim

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"predication/internal/bench"
	"predication/internal/core"
	"predication/internal/emu"
	"predication/internal/machine"
	"predication/internal/obs"
)

var update = flag.Bool("update", false, "rewrite testdata/golden_stats.txt from the current engine")

const goldenPath = "testdata/golden_stats.txt"

// goldenModels names the compilation models the golden file covers.
var goldenModels = []struct {
	name  string
	model core.Model
}{{"superblock", core.Superblock}, {"cmov", core.CondMove}, {"full", core.FullPred}}

// goldenMachines is the golden file's machine axis: the six stock
// configurations in order, then each as a 32-entry out-of-order window,
// then the parity matrix's gshare variants (gangConfigs), each in order
// and with the window.
func goldenMachines() []machine.Config {
	cfgs := []machine.Config{
		machine.Issue1(), machine.Issue1Cache(), machine.Issue4Br1(),
		machine.Issue8Br1(), machine.Issue8Br2(), machine.Issue8Br1Cache(),
	}
	for _, c := range cfgs[:6] {
		cfgs = append(cfgs, ooo32(c))
	}
	for _, c := range gangConfigs() {
		if c.Gshare {
			cfgs = append(cfgs, c, ooo32(c))
		}
	}
	return cfgs
}

// goldenHeader names the columns of every golden line.
func goldenHeader() string {
	return "# kernel model machine cycles instrs nullified branches cond_branches mispredicts " +
		"icache_misses dcache_misses loads stores " + strings.Join(obs.CauseNames(), " ")
}

// goldenLine renders one lane: its coordinates, every Stats field, then
// the cycle breakdown in cause order.
func goldenLine(kernel, model, cfg string, st Stats, b *obs.Breakdown) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s %s %s %d %d %d %d %d %d %d %d %d %d", kernel, model, cfg,
		st.Cycles, st.Instrs, st.Nullified, st.Branches, st.CondBranches,
		st.Mispredicts, st.ICacheMisses, st.DCacheMisses, st.Loads, st.Stores)
	for _, n := range b {
		fmt.Fprintf(&sb, " %d", n)
	}
	return sb.String()
}

// TestGoldenStats pins the timing engine to recorded output: every kernel
// under every model, compiled for the 8-issue 1-branch machine, on the six
// stock machines in order and with a 32-entry window, from plain and from
// instrumented lanes — every Stats field and the whole cycle breakdown.
// The file was recorded while the standalone in-order and out-of-order
// simulators and the original map-based simulator were still pinned to
// the gang by parity tests, so it holds the reference they used to
// provide; the gshare lines were recorded from those standalone
// simulators themselves.  Regenerate it with
//
//	go test ./internal/sim -run TestGoldenStats -update
//
// and only for an intended change to the model.
func TestGoldenStats(t *testing.T) {
	kernels := bench.All()
	if testing.Short() && !*update {
		kernels = kernels[:4]
	}
	cfgs := goldenMachines()
	var got []string
	for _, k := range kernels {
		for _, m := range goldenModels {
			c, err := core.Compile(k.Build(), m.model, core.DefaultOptions(machine.Issue8Br1()))
			if err != nil {
				t.Fatalf("%s/%s: compile: %v", k.Name, m.name, err)
			}
			plain := NewGang(c.Prog, cfgs)
			observed := NewGang(c.Prog, cfgs)
			accts := make([]obs.CycleAccount, len(cfgs))
			for i := range cfgs {
				observed.Instrument(i, &accts[i])
			}
			if _, err := emu.Run(c.Prog, emu.Options{Sink: emu.FanoutSink{plain, observed}}); err != nil {
				t.Fatalf("%s/%s: emulate: %v", k.Name, m.name, err)
			}
			for i, cfg := range cfgs {
				st := observed.Stats(i)
				if p := plain.Stats(i); p != st {
					t.Errorf("%s/%s @ %s: instrumented lane diverges from plain:\n  plain %+v\n  obs   %+v",
						k.Name, m.name, cfg.Name, p, st)
				}
				if err := accts[i].Verify(st.Cycles, st.Instrs, st.Nullified); err != nil {
					t.Errorf("%s/%s @ %s: %v", k.Name, m.name, cfg.Name, err)
				}
				got = append(got, goldenLine(k.Name, m.name, cfg.Name, st, &accts[i].Breakdown))
			}
		}
	}
	if *update {
		data := goldenHeader() + "\n" + strings.Join(got, "\n") + "\n"
		if err := os.WriteFile(goldenPath, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := readGolden(t)
	for _, line := range got {
		key := goldenKey(line)
		if w, ok := want[key]; !ok {
			t.Errorf("%s: no golden line", key)
		} else if w != line {
			t.Errorf("%s diverges from %s:\n  got  %s\n  want %s", key, goldenPath, line, w)
		}
	}
	if !testing.Short() && len(got) != len(want) {
		t.Errorf("measured %d lanes, %s has %d", len(got), goldenPath, len(want))
	}
}

// goldenKey is a golden line's coordinates: "kernel model machine".
func goldenKey(line string) string {
	return strings.Join(strings.Fields(line)[:3], " ")
}

// readGolden loads the golden file keyed by goldenKey.
func readGolden(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	lines := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := sc.Text(); line != "" && !strings.HasPrefix(line, "#") {
			lines[goldenKey(line)] = line
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines
}
