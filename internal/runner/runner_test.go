package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestRunReturnsResultsInTaskOrder(t *testing.T) {
	const n = 50
	tasks := make([]Task[int], n)
	for i := range tasks {
		i := i
		tasks[i] = Task[int]{
			Spec: Spec{Index: i},
			Run: func(ctx context.Context) (int, error) {
				// Finish in scrambled order.
				time.Sleep(time.Duration((n-i)%7) * time.Millisecond)
				return i * i, nil
			},
		}
	}
	for _, pool := range []int{1, 3, 8} {
		res, stats, err := Run(context.Background(), Config{Pool: pool}, tasks)
		if err != nil {
			t.Fatalf("pool %d: %v", pool, err)
		}
		for i, v := range res {
			if v != i*i {
				t.Fatalf("pool %d: result[%d] = %d, want %d", pool, i, v, i*i)
			}
		}
		if stats.Completed != n || stats.Failed != 0 || stats.Started != n {
			t.Fatalf("pool %d: stats %+v", pool, stats)
		}
	}
}

func TestRunIsolatesPanics(t *testing.T) {
	tasks := []Task[string]{
		{Spec: Spec{Index: 0, Label: "ok"}, Run: func(ctx context.Context) (string, error) { return "fine", nil }},
		{Spec: Spec{Index: 1, Label: "boom"}, Run: func(ctx context.Context) (string, error) { panic("kaboom") }},
		{Spec: Spec{Index: 2, Label: "ok2"}, Run: func(ctx context.Context) (string, error) { return "also fine", nil }},
	}
	res, stats, err := Run(context.Background(), Config{Pool: 2}, tasks)
	if err == nil {
		t.Fatal("want an error for the panicking run")
	}
	var re *RunError
	if !errors.As(err, &re) {
		t.Fatalf("error %v is not a *RunError", err)
	}
	if re.Spec.Index != 1 {
		t.Fatalf("RunError names index %d, want 1", re.Spec.Index)
	}
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Value != "kaboom" {
		t.Fatalf("want a *PanicError carrying the panic value, got %v", err)
	}
	if res[0] != "fine" || res[2] != "also fine" {
		t.Fatalf("surviving results lost: %q", res)
	}
	if stats.Completed != 2 || stats.Failed != 1 || stats.Panics != 1 {
		t.Fatalf("stats %+v", stats)
	}
}

func TestRunDoesNotRetryTerminalErrors(t *testing.T) {
	var attempts atomic.Int32
	terminal := errors.New("deterministic failure")
	tasks := []Task[int]{{
		Spec: Spec{Index: 0},
		Run: func(ctx context.Context) (int, error) {
			attempts.Add(1)
			return 0, terminal
		},
	}}
	_, _, err := Run(context.Background(), Config{}, tasks)
	if !errors.Is(err, terminal) {
		t.Fatalf("err %v does not wrap the terminal cause", err)
	}
	if attempts.Load() != 1 {
		t.Fatalf("terminal error was attempted %d times, want 1", attempts.Load())
	}
	var re *RunError
	if !errors.As(err, &re) || re.Spec.Index != 0 {
		t.Fatalf("RunError = %+v, want one naming run 0", re)
	}
}

func TestRunCancellationSkipsAndCancels(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	var startedRuns atomic.Int32
	tasks := make([]Task[int], 20)
	for i := range tasks {
		tasks[i] = Task[int]{
			Spec: Spec{Index: i},
			Run: func(ctx context.Context) (int, error) {
				if startedRuns.Add(1) == 1 {
					close(started)
				}
				<-ctx.Done()
				return 0, context.Cause(ctx)
			},
		}
	}
	go func() {
		<-started
		cancel()
	}()
	_, stats, err := Run(ctx, Config{Pool: 2}, tasks)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err %v does not wrap context.Canceled", err)
	}
	if stats.Skipped == 0 {
		t.Fatalf("expected skipped runs, stats %+v", stats)
	}
	if stats.Completed != 0 {
		t.Fatalf("no run should complete, stats %+v", stats)
	}
}

func TestRunProgressIsSerializedAndComplete(t *testing.T) {
	const n = 16
	var completed, started int
	tasks := make([]Task[int], n)
	for i := range tasks {
		tasks[i] = Task[int]{Spec: Spec{Index: i}, Run: func(ctx context.Context) (int, error) { return 0, nil }}
	}
	_, _, err := Run(context.Background(), Config{
		Pool: 4,
		OnProgress: func(p Progress) {
			// No mutex here: the runner promises serialized callbacks, so
			// -race flags any violation.
			switch p.State {
			case "started":
				started++
			case "completed":
				completed++
				if p.Total != n {
					t.Errorf("Total = %d, want %d", p.Total, n)
				}
			}
		},
	}, tasks)
	if err != nil {
		t.Fatal(err)
	}
	if started != n || completed != n {
		t.Fatalf("progress saw %d started, %d completed, want %d each", started, completed, n)
	}
}

func TestDeriveSeedDeterministicAndSpread(t *testing.T) {
	seen := make(map[int64]bool)
	for i := 0; i < 1000; i++ {
		s1 := DeriveSeed(133, i)
		s2 := DeriveSeed(133, i)
		if s1 != s2 {
			t.Fatalf("DeriveSeed not deterministic at index %d", i)
		}
		if seen[s1] {
			t.Fatalf("seed collision at index %d", i)
		}
		seen[s1] = true
	}
	if DeriveSeed(133, 0) == DeriveSeed(134, 0) {
		t.Fatal("different campaign seeds should derive different run seeds")
	}
}

func TestPoolSizeComposition(t *testing.T) {
	if got := PoolSize(7, 4); got != 7 {
		t.Fatalf("explicit pool ignored: %d", got)
	}
	maxprocs := runtime.GOMAXPROCS(0)
	if got := PoolSize(0, 1); got != maxprocs {
		t.Fatalf("default pool = %d, want GOMAXPROCS (%d)", got, maxprocs)
	}
	if got := PoolSize(0, 2*maxprocs); got != 1 {
		t.Fatalf("oversubscribed engine workers should clamp the pool to 1, got %d", got)
	}
}

func TestRunErrorNamesTheSpec(t *testing.T) {
	err := &RunError{Spec: Spec{Index: 3, Label: "mttf=3000 c=125"}, Err: errors.New("boom")}
	msg := err.Error()
	for _, want := range []string{"run 3", "mttf=3000 c=125", "boom"} {
		if !strings.Contains(msg, want) {
			t.Fatalf("error %q missing %q", msg, want)
		}
	}
}

func TestRunSplitsQueueWaitFromRunWall(t *testing.T) {
	// One worker, two tasks: the second task's wait includes the first
	// task's run time, and the split shows up both in per-run progress
	// and the pooled stats.
	block := 30 * time.Millisecond
	tasks := []Task[int]{
		{Spec: Spec{Index: 0}, Run: func(ctx context.Context) (int, error) {
			time.Sleep(block)
			return 0, nil
		}},
		{Spec: Spec{Index: 1}, Run: func(ctx context.Context) (int, error) {
			return 1, nil
		}},
	}
	var started []Progress
	cfg := Config{Pool: 1, OnProgress: func(p Progress) {
		if p.State == "started" {
			started = append(started, p)
		}
	}}
	_, stats, err := Run(context.Background(), cfg, tasks)
	if err != nil {
		t.Fatal(err)
	}
	if len(started) != 2 {
		t.Fatalf("started events = %d, want 2", len(started))
	}
	// Pool=1 runs tasks in order; the second run queued behind the
	// first's sleep.
	var second Progress
	for _, p := range started {
		if p.Index == 1 {
			second = p
		}
	}
	if wait := time.Duration(second.WaitNS); wait < block/2 {
		t.Fatalf("second run's queue wait = %v, want ≥ %v", wait, block/2)
	}
	if stats.QueueWait < time.Duration(second.WaitNS) {
		t.Fatalf("stats.QueueWait = %v < second run's wait %v", stats.QueueWait, time.Duration(second.WaitNS))
	}
}

// TestRunFailedProgressCarriesErrorText checks that a finished run's
// report carries its error text, that the failure is counted before the
// report goes out, and that the Logf summary line names the cause.
func TestRunFailedProgressCarriesErrorText(t *testing.T) {
	tasks := []Task[int]{
		{Spec: Spec{Index: 0, Label: "bad", Seed: 5}, Run: func(ctx context.Context) (int, error) {
			return 0, errors.New("boom")
		}},
		{Spec: Spec{Index: 1, Label: "good"}, Run: func(ctx context.Context) (int, error) {
			return 1, nil
		}},
	}
	var finished []Progress
	var lines []string
	cfg := Config{
		Pool: 1,
		OnProgress: func(p Progress) {
			if p.State != "started" {
				finished = append(finished, p)
			}
		},
		Logf: func(format string, args ...any) { lines = append(lines, fmt.Sprintf(format, args...)) },
	}
	if _, _, err := Run(context.Background(), cfg, tasks); err == nil {
		t.Fatal("want the failed run's error")
	}
	if len(finished) != 2 {
		t.Fatalf("finished reports = %+v, want 2", finished)
	}
	bad, good := finished[0], finished[1]
	if bad.State != "failed" || bad.Error != "boom" || bad.Label != "bad" || bad.Seed != 5 || bad.Failed != 1 || bad.Done != 1 {
		t.Errorf("failed run's report = %+v", bad)
	}
	if good.State != "completed" || good.Error != "" || good.Failed != 1 || good.Done != 2 {
		t.Errorf("completed run's report = %+v", good)
	}
	if len(lines) != 2 || !strings.HasPrefix(lines[0], "[campaign 1/2] run 0 (bad): FAILED: boom (") ||
		!strings.HasPrefix(lines[1], "[campaign 2/2] run 1 (good): ok (") {
		t.Errorf("log lines = %q", lines)
	}
}
