package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"predication/internal/core"
	"predication/internal/experiments"
	"predication/internal/machine"
)

// The cache is content-addressed: a key is the SHA-256 of a canonical
// rendering of everything that determines the cell's result — the kernel
// name (kernels are deterministic generators, so the name pins the
// program), the model, the full machine configuration, and the compiler
// options.  Two requests hash equal exactly when the emulation-driven
// methodology guarantees they produce identical bytes, which is what
// makes repeated studies (penalty sweeps, ablations, CI reruns) cache
// hits rather than recomputations.

// optionsFingerprint canonically renders the deterministic compilation
// knobs.  Hook fields (StageHook, Pipeline) are deliberately excluded:
// they observe compilation without changing its output.  The trailing
// legacyemu=false renders a retired option at its only value, so keys
// stay byte-identical to the ones already in persisted stores and in
// response bodies.
func optionsFingerprint(opts core.Options) string {
	return fmt.Sprintf("machine=%#v;superblock=%#v;hyperblock=%#v;partial=%#v;unroll=%#v;nopromotion=%v;nopeephole=%v;noschedule=%v;profilesteps=%d;legacyemu=false",
		opts.Machine, opts.Superblock, opts.Hyperblock, opts.Partial, opts.Unroll,
		opts.NoPromotion, opts.NoPeephole, opts.NoSchedule, opts.ProfileSteps)
}

func digest(parts string) string {
	h := sha256.Sum256([]byte(parts))
	return hex.EncodeToString(h[:])
}

// ArtifactKey addresses one compiled artifact: (kernel, model, scheduling
// target, compiler options).  Simulator configurations sharing scheduled
// code (the cache variants) share the artifact.
func ArtifactKey(kernel string, model core.Model, target machine.Config) string {
	return digest(fmt.Sprintf("artifact|kernel=%s|model=%d|opts=%s",
		kernel, model, optionsFingerprint(core.DefaultOptions(target))))
}

// formedKey addresses one formed program in the daemon's formed-program
// layer: (kernel, model, compiler options) with the machine zeroed, since
// formation never reads it.  The key is never persisted.
func formedKey(kernel string, model core.Model) string {
	return digest(fmt.Sprintf("formed|kernel=%s|model=%d|opts=%s",
		kernel, model, optionsFingerprint(core.DefaultOptions(machine.Config{}))))
}

// ResultKey addresses one measured cell: the artifact coordinates plus
// the simulator configuration actually timed and whether the run was
// instrumented (observed runs carry the breakdown in the body, so they
// are distinct cache entries).
func ResultKey(kernel string, model core.Model, cfg machine.Config, observe bool) string {
	return digest(fmt.Sprintf("result|kernel=%s|model=%d|sim=%#v|observe=%v|opts=%s",
		kernel, model, cfg, observe,
		optionsFingerprint(core.DefaultOptions(experiments.SchedTarget(cfg)))))
}

// FiguresKey addresses one figure-table request: the kernel filter in
// request order (order changes reporting order, so it is part of the
// content) over the standard suite options.
func FiguresKey(kernels []string) string {
	return digest(fmt.Sprintf("figures|kernels=%q", kernels))
}
