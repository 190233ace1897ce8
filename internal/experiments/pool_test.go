package experiments

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

func TestRunJobsRunsEverything(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 64} {
		const n = 100
		var done [n]atomic.Bool
		if err := runJobs(inOrder(n), workers, func(i int) error {
			if done[i].Swap(true) {
				return fmt.Errorf("job %d ran twice", i)
			}
			return nil
		}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range done {
			if !done[i].Load() {
				t.Fatalf("workers=%d: job %d never ran", workers, i)
			}
		}
	}
}

// TestRunJobsFirstError pins the determinism contract: the returned error
// is always the lowest-indexed failure, and every job below that index
// still runs to completion.
func TestRunJobsFirstError(t *testing.T) {
	for _, workers := range []int{1, 4} {
		const n = 50
		boom := errors.New("boom")
		var ran [n]atomic.Bool
		err := runJobs(inOrder(n), workers, func(i int) error {
			ran[i].Store(true)
			if i == 20 || i == 35 {
				return fmt.Errorf("job %d: %w", i, boom)
			}
			return nil
		})
		if err == nil || err.Error() != "job 20: boom" {
			t.Fatalf("workers=%d: err = %v, want job 20's", workers, err)
		}
		for i := 0; i < 20; i++ {
			if !ran[i].Load() {
				t.Errorf("workers=%d: job %d below first failure did not run", workers, i)
			}
		}
	}
}

func TestRunJobsCancelsTail(t *testing.T) {
	// With one worker the failure at job 0 must prevent all later jobs.
	var count atomic.Int32
	err := runJobs(inOrder(100), 1, func(i int) error {
		count.Add(1)
		return errors.New("fail fast")
	})
	if err == nil {
		t.Fatal("expected error")
	}
	if got := count.Load(); got != 1 {
		t.Errorf("%d jobs ran after a first-job failure, want 1", got)
	}
}

// TestRunJobsClaimOrder: jobs are claimed in the given order, and a
// failure claimed before lower-indexed jobs still leaves the returned
// error the lowest-indexed one, with every job below it run.
func TestRunJobsClaimOrder(t *testing.T) {
	const n = 30
	order := make([]int, n)
	for i := range order {
		order[i] = n - 1 - i
	}
	var claimed []int
	if err := runJobs(order, 1, func(i int) error {
		claimed = append(claimed, i)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(claimed) != fmt.Sprint(order) {
		t.Errorf("claimed %v, want %v", claimed, order)
	}
	for _, workers := range []int{1, 4} {
		var ran [n]atomic.Bool
		err := runJobs(order, workers, func(i int) error {
			ran[i].Store(true)
			if i == 10 || i == 25 {
				return fmt.Errorf("job %d", i)
			}
			return nil
		})
		if err == nil || err.Error() != "job 10" {
			t.Fatalf("workers=%d: err = %v, want job 10's", workers, err)
		}
		for i := 0; i < 10; i++ {
			if !ran[i].Load() {
				t.Errorf("workers=%d: job %d below the first failure did not run", workers, i)
			}
		}
	}
}
