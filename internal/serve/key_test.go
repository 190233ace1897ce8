package serve

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"predication/internal/core"
	"predication/internal/experiments"
	"predication/internal/machine"
	"predication/internal/submit"
)

var updateKeys = flag.Bool("update", false, "rewrite testdata/keys_golden.txt from the current key functions")

const keysGoldenPath = "testdata/keys_golden.txt"

// TestKeysGolden holds every persisted cache key to a committed table.
// Stores keep these keys across restarts and response bodies echo them,
// and the keys render whole configuration structs with %#v, so a new
// field in machine.Config or core.Options would silently re-address every
// entry.  Coverage: wc and eqn × every stock machine × the four models ×
// {btb, gshare} × {in-order, window 32} × observe, plus the submission
// keys over the same configurations and the figures keys.
func TestKeysGolden(t *testing.T) {
	const prog = "5f0c0b6d3a2e9187c4d1f6a8b0e2937465c8d1a0f3b6e9c2d5a8b1e4f7c0a3d6"
	steps := submit.DefaultLimits().MaxSteps
	models := map[core.Model]string{}
	for _, name := range []string{"superblock", "cmov", "full", "guard"} {
		m, err := core.ParseModel(name)
		if err != nil {
			t.Fatal(err)
		}
		models[m] = name
	}
	var sb strings.Builder
	for _, kernel := range []string{"wc", "eqn"} {
		for _, name := range machine.Names() {
			target := experiments.SchedTarget(mustMachine(t, name))
			for _, model := range allModels {
				fmt.Fprintf(&sb, "artifact %s %s %s %s\n", kernel, models[model], name, ArtifactKey(kernel, model, target))
			}
		}
	}
	var cfgs []machine.Config
	for _, name := range machine.Names() {
		for _, pred := range []string{"btb", "gshare"} {
			for _, win := range []string{"", "32"} {
				cfg, err := experiments.ApplyPredictor(mustMachine(t, name), pred)
				if err == nil {
					cfg, err = experiments.ApplyWindow(cfg, win)
				}
				if err != nil {
					t.Fatal(err)
				}
				cfgs = append(cfgs, cfg)
			}
		}
	}
	for _, kernel := range []string{"wc", "eqn"} {
		for _, cfg := range cfgs {
			for _, model := range allModels {
				for _, observe := range []bool{false, true} {
					fmt.Fprintf(&sb, "result %s %s %s observe=%v %s\n", kernel, models[model], cfg.Name, observe,
						ResultKey(kernel, model, cfg, observe))
				}
			}
		}
	}
	for _, name := range machine.Names() {
		target := experiments.SchedTarget(mustMachine(t, name))
		for _, model := range allModels {
			fmt.Fprintf(&sb, "submitart %s %s %s\n", models[model], name, submitArtifactKey(prog, model, target, steps))
		}
	}
	for _, cfg := range cfgs {
		fmt.Fprintf(&sb, "submit all %s %s\n", cfg.Name, submitResultKey(prog, allModels, cfg, steps))
		for _, model := range allModels {
			fmt.Fprintf(&sb, "submit %s %s %s\n", models[model], cfg.Name, submitResultKey(prog, []core.Model{model}, cfg, steps))
		}
	}
	for _, kernels := range [][]string{nil, {"wc"}, {"eqn"}, {"wc", "eqn"}, {"eqn", "wc"}} {
		fmt.Fprintf(&sb, "figures %q %s\n", kernels, FiguresKey(kernels))
	}
	got := sb.String()
	if *updateKeys {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(keysGoldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(keysGoldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to record it)", err)
	}
	if got == string(want) {
		return
	}
	g, w := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			t.Fatalf("%s line %d:\n got %s\nwant %s", keysGoldenPath, i+1, g[i], w[i])
		}
	}
	t.Fatalf("%d key lines, %s has %d", len(g), keysGoldenPath, len(w))
}

func mustMachine(t *testing.T, name string) machine.Config {
	t.Helper()
	cfg, err := machine.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}
