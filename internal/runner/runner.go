// Package runner is the campaign-orchestration engine: it executes many
// independent simulation runs across a bounded worker pool, the way the
// paper's evaluation is actually built — Table II's rank×failure grid, the
// checkpoint-interval sweep, and the restart chains are all campaigns of
// hundreds of runs that share nothing but a seed-derivation rule.
//
// The runner owns the concerns every driver used to reimplement (or skip):
//
//   - a bounded pool (default GOMAXPROCS, composing with each run's own
//     engine parallelism via PoolSize),
//   - context.Context cancellation,
//   - panic isolation — a crashing run becomes a typed *RunError carrying
//     the run's Spec instead of killing the whole campaign,
//   - deterministic seed derivation (campaign seed + run index), so a
//     campaign's results are identical regardless of pool size or
//     completion order,
//   - streaming progress callbacks and aggregate Stats.
//
// Results are returned indexed by task position, never by completion
// order, which is what makes pool-size-independent digests possible.
package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"
)

// Spec identifies one run of a campaign. It travels with every progress
// report and error so a failure deep in a grid names the cell it came
// from.
type Spec struct {
	// Index is the run's position in the campaign (0-based); results are
	// returned in Index order.
	Index int
	// Label names the run for humans ("mttf=3000s c=125 seed=2").
	Label string
	// Seed is the run's derived seed (informational; the task closure has
	// already captured it).
	Seed int64
}

// String renders the spec for error messages.
func (s Spec) String() string {
	if s.Label == "" {
		return fmt.Sprintf("run %d", s.Index)
	}
	return fmt.Sprintf("run %d (%s)", s.Index, s.Label)
}

// Task is one unit of campaign work: an independent run producing a T.
type Task[T any] struct {
	Spec Spec
	// Run executes the task. It must honour ctx (the simulator's engine
	// does, at window boundaries) and be safe to run concurrently with
	// other tasks — tasks must not share mutable state.
	Run func(ctx context.Context) (T, error)
}

// Progress is one streaming progress report, in the wire layout the
// campaign service streams to clients as NDJSON: its JSON form is the
// progress event's bytes. Callbacks are invoked serially (never
// concurrently), but from pool worker goroutines.
type Progress struct {
	// Index, Label, Seed identify the run within its campaign (its Spec).
	Index int    `json:"index"`
	Label string `json:"label,omitempty"`
	Seed  int64  `json:"seed,omitempty"`
	// State is "started" (handed to a pool worker), "completed" or
	// "failed" (error, panic, or cancellation).
	State string `json:"state"`
	// Attempt is always 1: a deterministic simulation has no transient
	// failure to retry. The field stays because progress streams carry it.
	Attempt int `json:"attempt"`
	// Error carries the run's error text for the failed state.
	Error string `json:"error,omitempty"`
	// ElapsedNS is the run's execution wall time in nanoseconds (zero when
	// started). WaitNS is its queue wait: the wall time between the
	// campaign starting and this run being handed to a pool worker.
	// Fairness metrics need the two apart — a run can spend seconds queued
	// behind other tenants and milliseconds executing.
	ElapsedNS int64 `json:"elapsed_ns"`
	WaitNS    int64 `json:"wait_ns"`
	// Done, Failed, Total summarise the campaign so far: Done counts
	// finished runs (completed or failed), Failed the terminal failures.
	Done   int `json:"done"`
	Failed int `json:"failed"`
	Total  int `json:"total"`
}

// Stats aggregates a campaign's execution counters.
type Stats struct {
	// Started, Completed, Failed count runs by outcome; Started includes
	// runs that later failed. Skipped counts runs never started because
	// the campaign was cancelled first.
	Started, Completed, Failed, Skipped int
	// Panics counts runs that ended in a recovered panic.
	Panics int
	// Wall is the campaign's total wall-clock time.
	Wall time.Duration
	// RunWall sums every run's wall time — the serial-equivalent
	// cost; RunWall/Wall approximates the achieved pool speedup.
	RunWall time.Duration
	// QueueWait sums every started run's queue wait (campaign start to
	// hand-off). QueueWait/Started is the mean pool-queueing delay,
	// the half of the latency RunWall does not explain.
	QueueWait time.Duration
}

// Config parameterises a campaign execution.
type Config struct {
	// Pool is the maximum number of runs in flight (default: PoolSize's
	// composition of GOMAXPROCS with EngineWorkers).
	Pool int
	// EngineWorkers is each run's internal engine parallelism; the
	// default pool budget divides GOMAXPROCS by it so pool × engine
	// workers stays at the machine's parallelism.
	EngineWorkers int
	// OnProgress, when set, receives serialized progress reports.
	OnProgress func(Progress)
	// Logf, when set, receives a one-line summary per completed or
	// failed run (a convenience when no OnProgress is installed).
	Logf func(format string, args ...any)
}

// PoolSize composes the campaign pool budget with each run's engine
// parallelism: an explicit pool wins; otherwise GOMAXPROCS is divided by
// the per-run engine workers so the total parallelism (pool × engine
// workers) matches the machine.
func PoolSize(pool, engineWorkers int) int {
	if pool > 0 {
		return pool
	}
	if engineWorkers < 1 {
		engineWorkers = 1
	}
	n := runtime.GOMAXPROCS(0) / engineWorkers
	if n < 1 {
		n = 1
	}
	return n
}

// DeriveSeed maps a campaign seed and a run index to the run's seed with
// a splitmix64 finalizer: consecutive indexes land far apart, and the
// derivation depends only on (campaign seed, index) — never on pool size
// or completion order — so campaigns are repeatable at any parallelism.
func DeriveSeed(campaignSeed int64, index int) int64 {
	z := uint64(campaignSeed) + uint64(index+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// RunError is the typed error a failing run becomes: it carries the run's
// spec and the underlying cause, so a campaign error names the grid cell
// instead of killing the campaign anonymously.
type RunError struct {
	Spec Spec
	// Err is the run's error; for a recovered panic it is a *PanicError.
	Err error
}

// Error implements error.
func (e *RunError) Error() string {
	return fmt.Sprintf("runner: %s failed: %v", e.Spec, e.Err)
}

// Unwrap exposes the underlying cause to errors.Is/As.
func (e *RunError) Unwrap() error { return e.Err }

// PanicError is a run panic converted into an error by the pool's panic
// isolation.
type PanicError struct {
	Value any
	Stack string
}

// Error implements error.
func (e *PanicError) Error() string { return fmt.Sprintf("run panicked: %v", e.Value) }

// Run executes the tasks across the pool and returns their results in
// task order. Individual run failures do not stop the campaign: the
// failed slots hold T's zero value and the returned error joins one
// *RunError per failure. Cancellation stops new launches, cancels
// in-flight runs, and is reported as a *RunError wrapping the context's
// error for every unfinished run it affected; already-completed results
// are kept.
func Run[T any](ctx context.Context, cfg Config, tasks []Task[T]) ([]T, Stats, error) {
	start := time.Now()
	results := make([]T, len(tasks))
	errs := make([]error, len(tasks))

	pool := PoolSize(cfg.Pool, cfg.EngineWorkers)
	if pool > len(tasks) {
		pool = len(tasks)
	}

	var (
		mu    sync.Mutex // guards stats, done/failed counters, progress serialization
		stats Stats
		done  int
	)
	// report streams one state change of t; err and elapsed are zero
	// for "started". The Logf line is written for finished runs only.
	report := func(t *Task[T], state string, err error, elapsed, wait time.Duration) {
		if cfg.OnProgress == nil && cfg.Logf == nil {
			return
		}
		mu.Lock()
		if cfg.OnProgress != nil {
			p := Progress{
				Index: t.Spec.Index, Label: t.Spec.Label, Seed: t.Spec.Seed,
				State: state, Attempt: 1,
				ElapsedNS: elapsed.Nanoseconds(), WaitNS: wait.Nanoseconds(),
				Done: done, Failed: stats.Failed, Total: len(tasks),
			}
			if err != nil {
				p.Error = err.Error()
			}
			cfg.OnProgress(p)
		}
		if cfg.Logf != nil && state != "started" {
			status := "ok"
			if err != nil {
				status = fmt.Sprintf("FAILED: %v", err)
			}
			cfg.Logf("[campaign %d/%d] %s: %s (%v)", done, len(tasks), t.Spec, status, elapsed.Round(time.Millisecond))
		}
		mu.Unlock()
	}

	next := make(chan int)
	var wg sync.WaitGroup
	wg.Add(pool)
	for w := 0; w < pool; w++ {
		go func() {
			defer wg.Done()
			for i := range next {
				t := &tasks[i]
				wait := time.Since(start)
				mu.Lock()
				stats.Started++
				stats.QueueWait += wait
				mu.Unlock()
				report(t, "started", nil, 0, wait)
				runStart := time.Now()
				res, err := runOne(ctx, t)
				runWall := time.Since(runStart)
				mu.Lock()
				stats.RunWall += runWall
				if _, isPanic := asPanic(err); isPanic {
					stats.Panics++
				}
				if err != nil {
					stats.Failed++
					errs[i] = &RunError{Spec: t.Spec, Err: err}
				} else {
					stats.Completed++
					results[i] = res
				}
				done++
				mu.Unlock()
				state := "completed"
				if err != nil {
					state = "failed"
				}
				report(t, state, err, runWall, wait)
			}
		}()
	}

feed:
	for i := range tasks {
		select {
		case next <- i:
		case <-ctx.Done():
			// Unstarted tasks become skipped; their error names the
			// cancellation so callers can errors.Is(err, context.Canceled).
			mu.Lock()
			for j := i; j < len(tasks); j++ {
				stats.Skipped++
				errs[j] = &RunError{Spec: tasks[j].Spec, Err: context.Cause(ctx)}
			}
			mu.Unlock()
			break feed
		}
	}
	close(next)
	wg.Wait()

	stats.Wall = time.Since(start)
	return results, stats, errors.Join(errs...)
}

// runOne executes one task, converting a panic into a *PanicError instead
// of unwinding the pool worker.
func runOne[T any](ctx context.Context, t *Task[T]) (res T, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Value: r, Stack: string(debug.Stack())}
		}
	}()
	return t.Run(ctx)
}

// asPanic extracts a *PanicError from err, if any.
func asPanic(err error) (*PanicError, bool) {
	var p *PanicError
	if errors.As(err, &p) {
		return p, true
	}
	return nil, false
}
