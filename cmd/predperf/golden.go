package main

import (
	_ "embed"
	"fmt"
	"reflect"
	"sort"
	"strconv"
	"strings"

	"predication/internal/asm"
	"predication/internal/core"
	"predication/internal/experiments"
	"predication/internal/machine"
	"predication/internal/sim"
)

// The golden file is the benchmark's correctness reference: one line per
// (kernel, model, scheduling target, simulated machine) with every
// sim.Stats field and the run's checksum, generated with -update-golden.
// The timing model is not validated against hardware; this file pins what
// the simulator computed when it was written, so a change that moves any
// simulated number shows up as failed operations, never as a speed-up.
//
// Some compiles are not deterministic: the same kernel and model can
// schedule differently from one compile to the next.  -update-golden
// compiles every artifact goldenCompiles times, and when any predicated
// (or any superblock) artifact of a kernel varies, the lines of all of
// them carry "-" for every Stats field: only their checksum is pinned.
//
//go:embed testdata/golden_stats.txt
var goldenText string

// cellKey names one simulated result.  Model is the short name the serving
// API accepts (superblock, cmov, full, guard); Target is the machine the
// code was scheduled for and Machine the one it was timed on.
type cellKey struct {
	Kernel, Model, Target, Machine string
}

func (k cellKey) String() string {
	return k.Kernel + " " + k.Model + " " + k.Target + " " + k.Machine
}

type goldenEntry struct {
	Stats    sim.Stats
	Checksum int64
	Pinned   bool // false: the compile varies, so only Checksum is checked
}

// goldenCompiles is how many times -update-golden compiles each artifact
// to find the ones whose compile varies.
const goldenCompiles = 30

const unpinnedNote = "# '-' stats: the compile is nondeterministic, only the checksum is checked"

type golden map[cellKey]goldenEntry

// statsFields lists sim.Stats's fields by JSON name, so the golden file
// gains a column whenever Stats gains a field (and an old file stops
// parsing instead of silently checking less).
func statsFields() []string {
	t := reflect.TypeOf(sim.Stats{})
	names := make([]string, t.NumField())
	for i := range names {
		names[i] = strings.Split(t.Field(i).Tag.Get("json"), ",")[0]
	}
	return names
}

func goldenHeader() string {
	return "# kernel model target machine checksum " + strings.Join(statsFields(), " ")
}

// parseGolden reads the format written by (golden).format.
func parseGolden(text string) (golden, error) {
	lines := strings.Split(strings.TrimRight(text, "\n"), "\n")
	if len(lines) == 0 || lines[0] != goldenHeader() {
		return nil, fmt.Errorf("golden: header does not match sim.Stats (regenerate with -update-golden)")
	}
	nf := len(statsFields())
	g := golden{}
	for n, line := range lines[1:] {
		if strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 5+nf {
			return nil, fmt.Errorf("golden line %d: want %d fields, have %d", n+2, 5+nf, len(f))
		}
		e := goldenEntry{Pinned: f[5] != "-"}
		vals := make([]int64, 1+nf)
		for i := range vals {
			if !e.Pinned && i > 0 && f[4+i] == "-" {
				continue
			}
			v, err := strconv.ParseInt(f[4+i], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("golden line %d: %w", n+2, err)
			}
			vals[i] = v
		}
		e.Checksum = vals[0]
		sv := reflect.ValueOf(&e.Stats).Elem()
		for i := 0; i < nf; i++ {
			sv.Field(i).SetInt(vals[1+i])
		}
		k := cellKey{f[0], f[1], f[2], f[3]}
		if _, dup := g[k]; dup {
			return nil, fmt.Errorf("golden line %d: duplicate %s", n+2, k)
		}
		g[k] = e
	}
	return g, nil
}

func (g golden) format() string {
	lines := make([]string, 0, len(g))
	for k, e := range g {
		var sb strings.Builder
		fmt.Fprintf(&sb, "%s %d", k, e.Checksum)
		sv := reflect.ValueOf(e.Stats)
		for i := 0; i < sv.NumField(); i++ {
			if e.Pinned {
				fmt.Fprintf(&sb, " %d", sv.Field(i).Int())
			} else {
				sb.WriteString(" -")
			}
		}
		lines = append(lines, sb.String())
	}
	sort.Strings(lines)
	return goldenHeader() + "\n" + unpinnedNote + "\n" + strings.Join(lines, "\n") + "\n"
}

// check compares one measured result against the reference.
func (g golden) check(k cellKey, st sim.Stats, checksum int64) error {
	want, ok := g[k]
	switch {
	case !ok:
		return fmt.Errorf("%s: no golden line", k)
	case want.Checksum != checksum:
		return fmt.Errorf("%s: checksum %d, golden %d", k, checksum, want.Checksum)
	case want.Pinned && want.Stats != st:
		return fmt.Errorf("%s: stats %+v, golden %+v", k, st, want.Stats)
	}
	return nil
}

// add records a freshly measured result for -update-golden; measuring the
// same cell twice through different paths must agree.
func (g golden) add(k cellKey, e goldenEntry) error {
	if old, ok := g[k]; ok {
		if old.Checksum != e.Checksum || (old.Pinned && e.Pinned && old.Stats != e.Stats) {
			return fmt.Errorf("%s measured twice with different results", k)
		}
		e.Pinned = old.Pinned && e.Pinned
	}
	g[k] = e
	return nil
}

// Models in serving-API spelling, and the paper's matrix: the 1-issue
// baseline is always superblock code.
var (
	allModels   = []string{"superblock", "cmov", "full", "guard"}
	paperModels = allModels[:3]
)

func modelOf(name string) core.Model {
	m, err := core.ParseModel(name)
	if err != nil {
		panic(err) // only ever called with the names above
	}
	return m
}

// schedTargets are the machines code is scheduled for; every other stock
// machine shares one of their schedules (experiments.SchedTarget).
func schedTargets() []machine.Config {
	return []machine.Config{machine.Issue1(), machine.Issue4Br1(), machine.Issue8Br1(), machine.Issue8Br2()}
}

// stockMachines are the six named machines in the paper's reporting order.
func stockMachines() []machine.Config {
	return []machine.Config{
		machine.Issue1(), machine.Issue1Cache(), machine.Issue4Br1(),
		machine.Issue8Br1(), machine.Issue8Br2(), machine.Issue8Br1Cache(),
	}
}

// paperCell is one compiled cell of the paper's matrix.
type paperCell struct {
	kernel, model string
	target        machine.Config
}

// paperCells enumerates the 10 compiled cells per kernel that
// experiments.Run measures: superblock on all four targets, the two
// predicated models on the three wide ones.
func paperCells(kernels []string) []paperCell {
	var cells []paperCell
	for _, k := range kernels {
		for _, m := range paperModels {
			for _, t := range schedTargets() {
				if t.Name == "issue1" && m != "superblock" {
					continue
				}
				cells = append(cells, paperCell{k, m, t})
			}
		}
	}
	return cells
}

// sweepLanes is design_sweep's 24-lane machine set: the six stock machines
// × {btb, gshare} × {in-order, 32-entry out-of-order window}.
func sweepLanes() []machine.Config {
	var out []machine.Config
	for _, win := range []string{"", "32"} {
		for _, pred := range []string{"btb", "gshare"} {
			for _, m := range stockMachines() {
				c, err := experiments.ApplyPredictor(m, pred)
				if err == nil {
					c, err = experiments.ApplyWindow(c, win)
				}
				if err != nil {
					panic(err) // fixed, known-good names
				}
				out = append(out, c)
			}
		}
	}
	return out
}

// buildGolden measures every cell any workload checks, through the same
// public calls the workloads use: the design sweep's 24 lanes over the
// paper's matrix, the serving API's models × machines, and one
// experiments.Run pass, which must agree with the lanes it overlaps.
func buildGolden(kernels []string, workers int) (golden, error) {
	type job struct {
		kernel, model string
		target        machine.Config
		lanes         []machine.Config
		varies        bool
		ms            []*experiments.Measurement
	}
	var jobs []*job
	for _, c := range paperCells(kernels) {
		jobs = append(jobs, &job{kernel: c.kernel, model: c.model, target: c.target, lanes: sweepLanes()})
	}
	for _, k := range kernels {
		for _, m := range allModels {
			for _, t := range schedTargets() {
				if m == "guard" || (t.Name == "issue1" && m != "superblock") {
					jobs = append(jobs, &job{kernel: k, model: m, target: t, lanes: experiments.SimsFor(t)})
				}
			}
		}
	}
	err := forEach(len(jobs), workers, func(_, i int) error {
		j := jobs[i]
		var art *experiments.CellArtifact
		var listing string
		for n := 0; n < goldenCompiles && !j.varies; n++ {
			var err error
			if art, err = experiments.CompileCell(j.kernel, modelOf(j.model), j.target); err != nil {
				return err
			}
			l := asm.Format(art.Compiled.Prog)
			j.varies = n > 0 && l != listing
			listing = l
		}
		var err error
		j.ms, err = art.MeasureAll(j.lanes, false)
		return err
	})
	if err != nil {
		return nil, err
	}
	// A kernel whose compile varies for one model of a class (superblock,
	// or predicated) is unpinned for the whole class.
	class := func(kernel, model string) string { return kernel + "/" + strconv.FormatBool(model == "superblock") }
	varies := map[string]bool{}
	for _, j := range jobs {
		varies[class(j.kernel, j.model)] = varies[class(j.kernel, j.model)] || j.varies
	}
	g := golden{}
	for _, j := range jobs {
		for li, lane := range j.lanes {
			e := goldenEntry{j.ms[li].Stats, j.ms[li].Checksum, !varies[class(j.kernel, j.model)]}
			if err := g.add(cellKey{j.kernel, j.model, j.target.Name, lane.Name}, e); err != nil {
				return nil, err
			}
		}
	}
	suite, err := experiments.Run(experiments.Options{Kernels: kernels, Parallel: workers})
	if err != nil {
		return nil, err
	}
	if len(suite.Errors) > 0 {
		return nil, fmt.Errorf("experiments.Run: %s", suite.ErrorReport())
	}
	for _, r := range suite.Results {
		for key, st := range r.Stats {
			model := shortModel(key.Model)
			k := cellKey{r.Name, model, experiments.SchedTarget(mustMachine(key.Config)).Name, key.Config}
			if err := g.add(k, goldenEntry{st, r.Checksum, !varies[class(r.Name, model)]}); err != nil {
				return nil, err
			}
		}
	}
	return g, nil
}

func shortModel(m core.Model) string {
	for _, name := range allModels {
		if modelOf(name) == m {
			return name
		}
	}
	panic(fmt.Sprintf("no short name for %v", m))
}

func mustMachine(name string) machine.Config {
	c, err := machine.ByName(name)
	if err != nil {
		panic(err) // names come from the suite's own stock machines
	}
	return c
}
