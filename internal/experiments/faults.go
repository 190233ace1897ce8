package experiments

import (
	"fmt"
	"runtime/debug"
	"strings"
	"time"

	"predication/internal/core"
)

// CellError is one matrix cell's failure, carrying the (kernel, model,
// target) coordinates the paper's tables are indexed by.  A failed cell
// renders as a tagged gap; the error itself lands in Suite.Errors.
type CellError struct {
	Kernel string
	// Model and Target locate the matrix cell.  For a failed reference
	// run (Ref true) they are unset: the whole kernel row is affected.
	Model  core.Model
	Target string
	Ref    bool
	Err    error
}

// Error formats the failure with its matrix coordinates.
func (e *CellError) Error() string {
	if e.Ref {
		return fmt.Sprintf("%s: reference run: %v", e.Kernel, e.Err)
	}
	return fmt.Sprintf("%s: %v @ %s: %v", e.Kernel, e.Model, e.Target, e.Err)
}

// Unwrap exposes the underlying failure to errors.Is/As.
func (e *CellError) Unwrap() error { return e.Err }

// PanicError is a panic recovered inside a matrix cell.  Error() is one
// line; the captured stack is kept for debugging.
type PanicError struct {
	Val   any
	Stack []byte
}

// Error formats the recovered value without the stack.
func (e *PanicError) Error() string { return fmt.Sprintf("panic: %v", e.Val) }

// TimeoutError reports a cell that exceeded Options.CellTimeout.
type TimeoutError struct {
	Limit time.Duration
}

// Error names the exceeded budget.
func (e *TimeoutError) Error() string { return fmt.Sprintf("cell exceeded %v timeout", e.Limit) }

// CellHook, when non-nil, runs at the start of every matrix cell with the
// cell's coordinates.  It is a test hook: fault-isolation tests use it to
// inject panics and stalls into otherwise healthy cells.  It must be set
// before Run and left alone until Run returns.
var CellHook func(kernel string, model core.Model, target string)

// Guard runs work on its own goroutine under the harness's standard
// fault isolation: a panic becomes a PanicError and an exceeded timeout
// becomes a TimeoutError (timeout <= 0 means unbounded).  On timeout the
// worker goroutine is abandoned — it still terminates on its own because
// every emulation is bounded by the emulator's step cap — and its late
// result is discarded via the buffered channel.  Run uses it for every
// matrix cell; the serving daemon (internal/serve) uses it to map
// per-request deadlines onto the same semantics as Options.CellTimeout.
func Guard[T any](timeout time.Duration, work func() (T, error)) (T, error) {
	type outcome struct {
		val T
		err error
	}
	ch := make(chan outcome, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				var zero T
				ch <- outcome{zero, &PanicError{Val: r, Stack: debug.Stack()}}
			}
		}()
		val, err := work()
		ch <- outcome{val, err}
	}()
	if timeout <= 0 {
		o := <-ch
		return o.val, o.err
	}
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case o := <-ch:
		return o.val, o.err
	case <-t.C:
		var zero T
		return zero, &TimeoutError{Limit: timeout}
	}
}

// ErrorReport renders the suite's collected cell failures, one line each,
// or "" when the run was clean.
func (s *Suite) ErrorReport() string {
	if len(s.Errors) == 0 {
		return ""
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%d failed cell(s):\n", len(s.Errors))
	for _, e := range s.Errors {
		fmt.Fprintf(&sb, "  %s\n", e.Error())
	}
	return sb.String()
}
