package main

import (
	"fmt"
	"io"
)

// Verdicts of one (workload, metric) comparison.
const (
	improved   = "improved"
	noWorse    = "no-worse"
	worse      = "worse"
	unresolved = "unresolved"
)

// sideStats summarizes one side's runs of a metric.
type sideStats struct {
	median, q1, q3 float64
	n              int
}

func summarize(xs []float64) sideStats {
	q1, q3 := quartiles(xs)
	return sideStats{median(xs), q1, q3, len(xs)}
}

// spread is the quartile distance as a share of the median.
func (s sideStats) spread() float64 {
	if s.median == 0 {
		return 0
	}
	return (s.q3 - s.q1) / s.median
}

// verdict compares head's runs of one metric with base's.  Runs pair up
// by index (the same round and seed on both sides).  A side whose spread
// exceeds the bound leaves the metric unresolved unless every head run
// beats every base run; otherwise head is worse when its median is past
// the bound, and improved when its median beats base's by more than
// base's own spread and head wins at least nine in ten pairs.
func verdict(d metricDef, base, head []float64) string {
	if len(base) == 0 || len(head) == 0 {
		return unresolved
	}
	better := func(h, b float64) bool {
		if d.Better == "higher" {
			return h > b
		}
		return h < b
	}
	b, h := summarize(base), summarize(head)
	loss := (h.median - b.median) / b.median // share by which head is worse
	if d.Better == "higher" {
		loss = -loss
	}
	if max(b.spread(), h.spread()) > d.Bound {
		for _, hv := range head {
			for _, bv := range base {
				if !better(hv, bv) {
					return unresolved
				}
			}
		}
		return improved
	}
	if loss > d.Bound {
		return worse
	}
	wins, pairs := 0, min(len(base), len(head))
	for i := 0; i < pairs; i++ {
		if better(head[i], base[i]) {
			wins++
		}
	}
	if -loss > b.spread() && wins*10 >= pairs*9 {
		return improved
	}
	return noWorse
}

// printCompare prints one row per (workload, end-to-end metric) — each
// side's median and quartiles, the change relative to the base median,
// and the verdict — plus each workload's failed share.  Only the same
// metric on the same workload is ever compared.  It reports whether
// nothing got worse.
func printCompare(w io.Writer, sp *spec, base, head *runFile) bool {
	ok := true
	fmt.Fprintf(w, "%-13s %-18s %-34s %-34s %-22s %s\n", "workload", "metric", "base median [q1, q3]", "head median [q1, q3]", "change vs base median", "verdict")
	for _, wl := range sp.Workloads {
		for _, d := range sp.EndToEnd {
			bs, hs := base.samples(wl.Name, d.Name), head.samples(wl.Name, d.Name)
			v := verdict(d, bs, hs)
			b, h := summarize(bs), summarize(hs)
			change := "n/a"
			if b.median != 0 && len(hs) > 0 {
				change = fmt.Sprintf("%+.1f%% (bound %.0f%%)", (h.median-b.median)/b.median*100, d.Bound*100)
			}
			fmt.Fprintf(w, "%-13s %-18s %-34s %-34s %-22s %s\n", wl.Name, d.Name,
				fmt.Sprintf("%.6g [%.6g, %.6g] n=%d", b.median, b.q1, b.q3, b.n),
				fmt.Sprintf("%.6g [%.6g, %.6g] n=%d", h.median, h.q1, h.q3, h.n), change, v)
			if v == worse {
				ok = false
			}
		}
		bf, hf := failedFrac(base, wl.Name), failedFrac(head, wl.Name)
		v := noWorse
		if hf > bf {
			v, ok = worse, false
		}
		fmt.Fprintf(w, "%-13s %-18s %-34.6g %-34.6g %-22s %s\n", wl.Name, "failed_frac", bf, hf, "", v)
	}
	return ok
}

// failedFrac is failed ÷ attempted over a workload's runs.
func failedFrac(rf *runFile, workload string) float64 {
	var att, failed int64
	for _, r := range rf.Runs {
		if r.Workload == workload {
			att += r.Result.Attempted
			failed += r.Result.Failed
		}
	}
	if att == 0 {
		return 0
	}
	return float64(failed) / float64(att)
}
