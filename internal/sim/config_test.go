package sim

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"predication/internal/core"
	"predication/internal/emu"
	"predication/internal/machine"
	"predication/internal/obs"
	"predication/internal/progen"
)

// configSpaceSeed seeds TestConfigSpace; each draw i uses seed
// configSpaceSeed+i for its program, model and configuration.
const configSpaceSeed = 20_240_601

// drawConfig draws an in-order machine configuration that Validate
// accepts: any width, branch slots, predictor, penalties, predicate
// distance and suppression stage, and half the time real caches of random
// geometry and miss cost.  One latency in eight is long (drawLatency).
func drawConfig(r *rand.Rand) machine.Config {
	cache := func() machine.CacheConfig {
		block := 4 << r.Intn(6) // 4-128 bytes
		return machine.CacheConfig{
			SizeBytes:  block << r.Intn(12), // 1-2048 lines
			BlockSize:  block,
			MissCycles: drawLatency(r, 21),
		}
	}
	cfg := machine.Config{
		Name:                 "random",
		IssueWidth:           1 + r.Intn(16),
		BranchSlots:          1 + r.Intn(4),
		PerfectCache:         true,
		BTBEntries:           1 << r.Intn(13),
		MispredictPenalty:    r.Intn(8),
		WritebackSuppression: r.Intn(4) == 0,
		Gshare:               r.Intn(2) == 0,
		PredicateDistance:    drawLatency(r, 4),
	}
	if r.Intn(2) == 0 {
		cfg.TakenBranchBubble = 1 + r.Intn(3)
	}
	if r.Intn(2) == 0 {
		cfg.PerfectCache = false
		cfg.ICache, cfg.DCache = cache(), cache()
	}
	return cfg
}

// drawLatency draws a latency below short, and one time in eight up to
// 1<<20 cycles: long enough that out-of-order issue cycles outrun the
// issue-slot ring into its far list.
func drawLatency(r *rand.Rand, short int) int {
	if r.Intn(8) == 0 {
		return r.Intn(1<<20 + 1)
	}
	return r.Intn(short)
}

// drawWindow draws a window of 1-64 entries, and one time in eight up to
// machine.MaxWindowSize, the largest window and issue-slot ring.
func drawWindow(r *rand.Rand) int {
	if r.Intn(8) == 0 {
		return 1 + r.Intn(machine.MaxWindowSize)
	}
	return 1 + r.Intn(64)
}

// TestConfigSpace holds the timing engine's invariants over random
// programs × random valid machine configurations, not just the stock
// kernels and machines.  Each draw compiles a progen program for a random
// model and stock target, draws a configuration and a window (drawWindow)
// plus a second configuration and window that share the gang
// (so lanes of different geometry share its front end), and emulates
// once into the gang and into one one-lane simulator per gang lane.  It checks that every draw terminates (the emulator's
// step cap and a wall-clock watchdog), that each gang lane equals its
// one-lane run, that observed lanes equal plain lanes, that every
// breakdown sums to Stats.Cycles, that a window-1 machine equals the
// in-order one when TakenBranchBubble is 0 (the single stated exception:
// the out-of-order front end charges the bubble from dispatch), and that
// on an in-order machine perfect caches are never slower.
func TestConfigSpace(t *testing.T) {
	draws := 500
	if testing.Short() {
		draws = 60
	}
	models := []core.Model{core.Superblock, core.CondMove, core.FullPred, core.GuardInstr}
	targets := []machine.Config{machine.Issue1(), machine.Issue4Br1(), machine.Issue8Br1(), machine.Issue8Br2()}
	for i := 0; i < draws; i++ {
		seed := int64(configSpaceSeed + i)
		r := rand.New(rand.NewSource(seed))
		model := models[r.Intn(len(models))]
		target := targets[r.Intn(len(targets))]
		cfg := drawConfig(r)
		w := drawWindow(r)
		other := drawConfig(r)
		other.Name = "other"
		ow := drawWindow(r)
		where := fmt.Sprintf("seed %d (%v for %s), window %d, config %+v, other window %d, other config %+v",
			seed, model, target.Name, w, cfg, ow, other)

		c, err := core.Compile(progen.Generate(uint64(seed), progen.Default()), model, core.DefaultOptions(target))
		if err != nil {
			t.Fatalf("%s: compile: %v", where, err)
		}
		perfect := cfg
		perfect.PerfectCache = true
		// Lanes: plain in-order and out-of-order, the same two observed,
		// the window-1 machine, the perfect-cache machine, and the other
		// configuration in order and (observed) out of order.
		lanes := []machine.Config{cfg, window(cfg, w), cfg, window(cfg, w), window(cfg, 1), perfect, other, window(other, ow)}
		observed := []bool{false, false, true, true, false, false, false, true}

		g := NewGang(c.Prog, lanes)
		solos := make([]*Simulator, len(lanes))
		gangAccts := make([]obs.CycleAccount, len(lanes))
		soloAccts := make([]obs.CycleAccount, len(lanes))
		sinks := emu.FanoutSink{g}
		for l, lc := range lanes {
			solos[l] = NewTiming(c.Prog, lc)
			if observed[l] {
				g.Instrument(l, &gangAccts[l])
				solos[l].Instrument(&soloAccts[l])
			}
			sinks = append(sinks, solos[l])
		}
		done := make(chan error, 1)
		go func() {
			_, err := emu.Run(c.Prog, emu.Options{Sink: sinks, MaxSteps: 5_000_000})
			done <- err
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("%s: emulate: %v", where, err)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("%s: did not terminate within 30s", where)
		}

		st := make([]Stats, len(lanes))
		for l, lc := range lanes {
			st[l] = g.Stats(l)
			if solo := solos[l].Stats(); st[l] != solo || gangAccts[l] != soloAccts[l] {
				t.Errorf("%s: lane %d (%s) diverges from its one-lane run:\n  lane %+v %v\n  solo %+v %v",
					where, l, lc.Name, st[l], gangAccts[l].Breakdown, solo, soloAccts[l].Breakdown)
			}
			if observed[l] {
				if err := gangAccts[l].Verify(st[l].Cycles, st[l].Instrs, st[l].Nullified); err != nil {
					t.Errorf("%s: lane %d (%s): %v", where, l, lc.Name, err)
				}
			}
		}
		if st[2] != st[0] || st[3] != st[1] {
			t.Errorf("%s: observed lanes diverge from plain:\n  in-order %+v / %+v\n  window   %+v / %+v",
				where, st[0], st[2], st[1], st[3])
		}
		if cfg.TakenBranchBubble == 0 && st[4] != st[0] {
			t.Errorf("%s: window-1 diverges from in-order:\n  window-1 %+v\n  in-order %+v", where, st[4], st[0])
		}
		if st[5].Cycles > st[0].Cycles {
			t.Errorf("%s: perfect caches slower than real ones: %d > %d cycles", where, st[5].Cycles, st[0].Cycles)
		}
	}
}
