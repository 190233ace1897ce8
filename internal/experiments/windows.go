package experiments

import (
	"fmt"
	"strconv"

	"predication/internal/machine"
)

// The window axis: the suite matrix is kernel × model × machine ×
// predictor × window.  The paper's machines are in-order, so window 0
// (in-order) is the default and the primary window keeps the bare
// machine configuration names — the default matrix is byte-for-byte what
// it was before the axis existed.  Every additional window replays the
// full machine × predictor matrix on the out-of-order issue-window
// scheduler under suffixed configuration names ("issue8-br1+ooo32",
// "issue8-br1+gshare+ooo32").  Like the predictor suffix, the window
// suffix is invisible to SchedTarget: an OoO variant measures the same
// scheduled code as its base machine — the window is a hardware
// structure the compiler never sees — so the compiled artifact is shared
// across the whole window axis of a cell.

// normalizeWindows validates a window list: nil or empty defaults to
// {0} (the in-order machine).  0 selects the in-order model, any value
// from 1 to machine.MaxWindowSize an out-of-order window of that many
// entries; other values and duplicates are rejected (duplicates would
// create colliding matrix keys).  The first listed window keeps the bare
// configuration names.
func normalizeWindows(ws []int) ([]int, error) {
	if len(ws) == 0 {
		return []int{0}, nil
	}
	seen := map[int]bool{}
	for _, w := range ws {
		if w < 0 || w > machine.MaxWindowSize {
			return nil, fmt.Errorf("experiments: invalid window %d (want 0 for in-order, or an instruction-window size from 1 to %d)", w, machine.MaxWindowSize)
		}
		if seen[w] {
			return nil, fmt.Errorf("experiments: duplicate window %d", w)
		}
		seen[w] = true
	}
	return ws, nil
}

// applyWindow specializes a machine configuration for one window size.
// Window 0 is the in-order model; a positive window selects the
// out-of-order scheduler with that many window entries.  The primary
// window keeps the bare configuration name; secondary windows get an
// "+ooo<N>" suffix (or "+io" for a secondary in-order arm), which flows
// through Key.Config, the serving cache keys, and the table headings.
func applyWindow(cfg machine.Config, w int, primary bool) machine.Config {
	if w > 0 {
		cfg.OoO = true
		cfg.WindowSize = w
	}
	if !primary {
		if w > 0 {
			cfg.Name += "+ooo" + strconv.Itoa(w)
		} else {
			cfg.Name += "+io"
		}
	}
	return cfg
}

// ApplyWindow specializes a bare machine configuration for one window
// given as a string: "" or "0" leaves the in-order configuration bare,
// an integer from 1 to machine.MaxWindowSize selects the out-of-order
// scheduler and suffixes the configuration name.  It is the single-config form of the
// Options.Windows axis, used by the serving daemon's ?window= parameter.
func ApplyWindow(cfg machine.Config, window string) (machine.Config, error) {
	if window == "" || window == "0" {
		return cfg, nil
	}
	w, err := strconv.Atoi(window)
	if err != nil || w < 1 || w > machine.MaxWindowSize {
		return machine.Config{}, fmt.Errorf("experiments: invalid window %q (want an instruction-window size from 1 to %d, or 0/empty for in-order)", window, machine.MaxWindowSize)
	}
	return applyWindow(cfg, w, false), nil
}

// crossWindows expands a predictor-expanded configuration list across the
// window axis, keeping the given list's order within each window.
func crossWindows(cfgs []machine.Config, windows []int) []machine.Config {
	if len(windows) <= 1 && (len(windows) == 0 || windows[0] == 0) {
		return cfgs
	}
	out := make([]machine.Config, 0, len(cfgs)*len(windows))
	for wi, w := range windows {
		for _, cfg := range cfgs {
			out = append(out, applyWindow(cfg, w, wi == 0))
		}
	}
	return out
}
