package experiments

import (
	"fmt"
	"strings"

	"predication/internal/machine"
)

// The predictor axis: the suite matrix is kernel × model × machine ×
// predictor.  The paper's machine uses the BTB with 2-bit counters, so
// "btb" is the default and the primary predictor keeps the bare machine
// configuration names — the default matrix (cells, cache keys, merge
// order, table lookups) is byte-for-byte what it was before the axis
// existed.  Every additional predictor replays the full machine matrix
// under suffixed configuration names ("issue8-br1+gshare"), which makes
// the counterfactual a first-class set of matrix cells instead of the
// bolted-on side table the extension report used to build.

// Predictors lists the recognized predictor names in reporting order.
var Predictors = []string{"btb", "gshare"}

// normalizePredictors validates a predictor list: nil or empty defaults
// to {"btb"}, names must be recognized, and duplicates are rejected
// (they would create colliding matrix keys).
func normalizePredictors(preds []string) ([]string, error) {
	if len(preds) == 0 {
		return Predictors[:1], nil
	}
	seen := map[string]bool{}
	for _, p := range preds {
		known := false
		for _, n := range Predictors {
			if p == n {
				known = true
				break
			}
		}
		if !known {
			return nil, fmt.Errorf("experiments: unknown predictor %q (have %s)", p, strings.Join(Predictors, ", "))
		}
		if seen[p] {
			return nil, fmt.Errorf("experiments: duplicate predictor %q", p)
		}
		seen[p] = true
	}
	return preds, nil
}

// applyPredictor specializes a machine configuration for one predictor.
// The primary predictor keeps the bare configuration name; secondary
// predictors get a "+name" suffix, which flows through Key.Config, the
// serving cache keys, and the table headings.
func applyPredictor(cfg machine.Config, pred string, primary bool) machine.Config {
	cfg.Gshare = pred == "gshare"
	if !primary {
		cfg.Name += "+" + pred
	}
	return cfg
}

// ApplyPredictor specializes a bare machine configuration for one named
// predictor using the suite's naming convention: the default "btb" (or
// an empty name) leaves the configuration bare, any other recognized
// predictor sets its flag and suffixes the configuration name.  It is
// the single-config form of the Options.Predictors axis, used by the
// serving daemon's ?predictor= parameter.
func ApplyPredictor(cfg machine.Config, pred string) (machine.Config, error) {
	if pred == "" {
		pred = Predictors[0]
	}
	if _, err := normalizePredictors([]string{pred}); err != nil {
		return machine.Config{}, err
	}
	return applyPredictor(cfg, pred, pred == Predictors[0]), nil
}

// simConfigs expands SimsFor(target) across the predictor and window
// axes: the primary window's configurations first — the primary
// predictor's under their bare names, then each additional predictor's
// suffixed set — then the same predictor expansion per additional
// window.  Callers must pass already-normalized lists.
func simConfigs(target machine.Config, predictors []string, windows []int) []machine.Config {
	base := SimsFor(target)
	if len(predictors) > 1 || (len(predictors) == 1 && predictors[0] != "btb") {
		out := make([]machine.Config, 0, len(base)*len(predictors))
		for pi, pred := range predictors {
			for _, cfg := range base {
				out = append(out, applyPredictor(cfg, pred, pi == 0))
			}
		}
		base = out
	}
	return crossWindows(base, windows)
}

// reportConfigNames is the suite's configuration reporting order (the
// order cmd/figures emits per-config stats in).
var reportConfigNames = []string{
	"issue1", "issue1-64k", "issue4-br1", "issue8-br1", "issue8-br2", "issue8-br1-64k",
}

// SimConfigNames returns every simulator configuration name the suite
// measures for the given predictor and window lists, in reporting
// order: the bare names for the primary predictor and window, then the
// suffixed names of each additional predictor, repeated per additional
// window.  An invalid predictor or window list is an error, matching
// Run's validation.
func SimConfigNames(predictors []string, windows []int) ([]string, error) {
	preds, err := normalizePredictors(predictors)
	if err != nil {
		return nil, err
	}
	wins, err := normalizeWindows(windows)
	if err != nil {
		return nil, err
	}
	var names []string
	for wi, w := range wins {
		suffix := ""
		if wi > 0 {
			if w > 0 {
				suffix = fmt.Sprintf("+ooo%d", w)
			} else {
				suffix = "+io"
			}
		}
		for pi, pred := range preds {
			for _, n := range reportConfigNames {
				if pi == 0 {
					names = append(names, n+suffix)
				} else {
					names = append(names, n+"+"+pred+suffix)
				}
			}
		}
	}
	return names, nil
}
