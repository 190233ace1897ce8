package experiments

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"predication/internal/core"
)

// withCellHook installs a CellHook for the test and removes it afterwards.
func withCellHook(t *testing.T, hook func(kernel string, model core.Model, target string)) {
	t.Helper()
	CellHook = hook
	t.Cleanup(func() { CellHook = nil })
}

// TestCellPanicIsolated: a panicking cell must not abort the run — its
// siblings complete, the error report names the cell, and the tables
// render a tagged gap.
func TestCellPanicIsolated(t *testing.T) {
	withCellHook(t, func(kernel string, model core.Model, target string) {
		if kernel == "wc" && model == core.FullPred && target == "issue8-br1" {
			panic("injected cell fault")
		}
	})
	s, err := Run(Options{Kernels: []string{"wc", "cmp"}})
	if err != nil {
		t.Fatalf("fault-isolated run returned error: %v", err)
	}
	if len(s.Errors) != 1 {
		t.Fatalf("want 1 cell error, got %d: %s", len(s.Errors), s.ErrorReport())
	}
	ce := s.Errors[0]
	if ce.Kernel != "wc" || ce.Model != core.FullPred || ce.Target != "issue8-br1" || ce.Ref {
		t.Errorf("error names wrong cell: %+v", ce)
	}
	var pe *PanicError
	if !errors.As(ce, &pe) || pe.Val != "injected cell fault" {
		t.Errorf("cell error does not wrap the panic: %v", ce)
	}
	if !strings.Contains(s.ErrorReport(), "wc: Full Predication @ issue8-br1") {
		t.Errorf("error report does not name the cell:\n%s", s.ErrorReport())
	}

	// Siblings of the failed cell are intact...
	wc := s.Results[0]
	if !wc.Has(core.Superblock, "issue8-br1") || !wc.Has(core.CondMove, "issue8-br1") {
		t.Errorf("sibling cells of the failed cell are missing")
	}
	// ...only the failed cell (and the cache sim sharing its code) is gone.
	if wc.Has(core.FullPred, "issue8-br1") || wc.Has(core.FullPred, "issue8-br1-64k") {
		t.Errorf("failed cell still has stats")
	}
	// The untouched kernel is complete.
	cmp := s.Results[1]
	for _, m := range Models {
		if !cmp.Has(m, "issue8-br1") {
			t.Errorf("untouched kernel missing %v", m)
		}
	}

	// Tables: the gap is tagged, the mean still renders from the others.
	fig := s.Figure8().String()
	if !strings.Contains(fig, gapCell) {
		t.Errorf("Figure 8 does not tag the gap:\n%s", fig)
	}
	tab2 := s.Table2().String()
	if !strings.Contains(tab2, gapCell) {
		t.Errorf("Table 2 does not tag the gap:\n%s", tab2)
	}
}

// TestCellTimeout: a stalled cell is cut off by CellTimeout and reported
// as a TimeoutError while siblings complete.
func TestCellTimeout(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	withCellHook(t, func(kernel string, model core.Model, target string) {
		if kernel == "cmp" && model == core.CondMove && target == "issue4-br1" {
			<-release
		}
	})
	// The budget must be generous enough that healthy cells never trip it
	// (the race detector slows them ~10x); the hooked cell blocks forever,
	// so it times out under any budget.
	timeout := time.Second
	if raceEnabled {
		timeout = 15 * time.Second
	}
	s, err := Run(Options{Kernels: []string{"cmp"}, CellTimeout: timeout})
	if err != nil {
		t.Fatalf("fault-isolated run returned error: %v", err)
	}
	if len(s.Errors) != 1 {
		t.Fatalf("want 1 cell error, got %d: %s", len(s.Errors), s.ErrorReport())
	}
	var te *TimeoutError
	if !errors.As(s.Errors[0], &te) {
		t.Fatalf("want TimeoutError, got %v", s.Errors[0])
	}
	if s.Errors[0].Kernel != "cmp" || s.Errors[0].Model != core.CondMove || s.Errors[0].Target != "issue4-br1" {
		t.Errorf("timeout names wrong cell: %+v", s.Errors[0])
	}
	if !s.Results[0].Has(core.CondMove, "issue8-br1") {
		t.Errorf("sibling cell missing after timeout")
	}
}

// TestFailFast: the option restores the old first-error cancellation.
func TestFailFast(t *testing.T) {
	withCellHook(t, func(kernel string, model core.Model, target string) {
		if model == core.CondMove {
			panic("injected cell fault")
		}
	})
	s, err := Run(Options{Kernels: []string{"wc"}, FailFast: true})
	if err == nil {
		t.Fatalf("FailFast run did not fail: %v", s.Errors)
	}
	var ce *CellError
	if !errors.As(err, &ce) || ce.Model != core.CondMove {
		t.Errorf("FailFast error is not the failing cell: %v", err)
	}
	if s != nil {
		t.Errorf("FailFast returned a partial suite")
	}
}

// TestKernelWideFaults: every matrix cell of one kernel failing empties
// that kernel's row (its reference checksum still records) without
// touching other kernels.
func TestKernelWideFaults(t *testing.T) {
	withCellHook(t, func(kernel string, model core.Model, target string) {
		if kernel == "wc" {
			panic("kernel-wide fault")
		}
	})
	s, err := Run(Options{Kernels: []string{"wc", "cmp"}})
	if err != nil {
		t.Fatalf("fault-isolated run returned error: %v", err)
	}
	wc := s.Results[0]
	if len(wc.Stats) != 0 {
		t.Errorf("failed kernel still has %d cells", len(wc.Stats))
	}
	if wc.Checksum == 0 {
		t.Errorf("reference checksum missing for failed kernel")
	}
	if got := len(s.Errors); got != len(matrixCells()) {
		t.Errorf("want %d cell errors, got %d", len(matrixCells()), got)
	}
	if len(s.Results[1].Stats) == 0 {
		t.Errorf("healthy kernel lost its row")
	}
}

// TestFormationFaultFailsFamily: a model family's cells share one
// formation, so when it fails — here by overrunning a 1ns budget — every
// cell of the family becomes a CellError with its own coordinates, and
// none of them runs.
func TestFormationFaultFailsFamily(t *testing.T) {
	var ran atomic.Int32
	withCellHook(t, func(string, core.Model, string) { ran.Add(1) })
	s, err := Run(Options{Kernels: []string{"wc"}, CellTimeout: time.Nanosecond})
	if err != nil {
		t.Fatalf("fault-isolated run returned error: %v", err)
	}
	var got, want []string
	for _, cell := range matrixCells() {
		want = append(want, fmt.Sprintf("wc %v @ %s", cell.model, cell.target.Name))
	}
	for _, ce := range s.Errors {
		if ce.Ref {
			continue
		}
		var te *TimeoutError
		if !errors.As(ce, &te) {
			t.Errorf("%v: want a TimeoutError", ce)
		}
		got = append(got, fmt.Sprintf("%s %v @ %s", ce.Kernel, ce.Model, ce.Target))
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("cell errors %q, want %q", got, want)
	}
	if n := ran.Load(); n != 0 {
		t.Errorf("%d cells ran after their formation failed", n)
	}
}
