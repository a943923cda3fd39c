package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"xsim"
	"xsim/internal/jobstore"
)

// table1Spec is a cheap Table I campaign; distinct seeds give distinct
// cache keys.
func table1Spec(t *testing.T, seed int) *xsim.CampaignSpec {
	t.Helper()
	spec, err := xsim.DecodeCampaignSpec([]byte(fmt.Sprintf(
		`{"version":1,"kind":"table1","seed":%d,"table1":{"victims":3,"max_injections":50}}`, seed)))
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// watcher follows jobs' event streams from the moment they are
// submitted and records how many terminal lines each one carried.
type watcher struct {
	svc  *Service
	wg   sync.WaitGroup
	mu   sync.Mutex
	done map[string]int // job id → terminal lines seen
	last map[string]bool
}

func newWatcher(svc *Service) *watcher {
	return &watcher{svc: svc, done: map[string]int{}, last: map[string]bool{}}
}

// watch subscribes to job id and counts its done lines until the stream
// closes.
func (w *watcher) watch(t *testing.T, id string) {
	lines, _, ok := w.svc.Subscribe(id)
	if !ok {
		t.Errorf("Subscribe(%s) found no job", id)
		return
	}
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		n, lastDone := 0, false
		for line := range lines {
			var ev map[string]any
			if err := json.Unmarshal(line, &ev); err != nil {
				t.Errorf("job %s: bad line %q: %v", id, line, err)
			}
			lastDone = ev["event"] == "done"
			if lastDone {
				n++
			}
		}
		w.mu.Lock()
		w.done[id], w.last[id] = n, lastDone
		w.mu.Unlock()
	}()
}

// wait blocks until every watched stream has closed, then checks that
// each ended in exactly one done line.
func (w *watcher) wait(t *testing.T) {
	t.Helper()
	finished := make(chan struct{})
	go func() {
		w.wg.Wait()
		close(finished)
	}()
	select {
	case <-finished:
	case <-time.After(60 * time.Second):
		t.Fatal("event streams still open after 60s")
	}
	for id, n := range w.done {
		if n != 1 || !w.last[id] {
			t.Errorf("job %s: stream carried %d done lines (last line done: %v), want exactly one, last", id, n, w.last[id])
		}
	}
}

// submitWave has each of clients goroutines submit every spec reps
// times, watching every accepted job. It returns the accepted job ids
// and how many submissions were refused because intake had closed.
func submitWave(t *testing.T, svc *Service, w *watcher, clients, reps int, specs []*xsim.CampaignSpec) (ids []string, closed int) {
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < reps; r++ {
				for i := range specs {
					spec := specs[(i+c)%len(specs)]
					st, err := svc.Submit(fmt.Sprintf("tenant%d", c), spec)
					if errors.Is(err, ErrQueueClosed) {
						mu.Lock()
						closed++
						mu.Unlock()
						continue
					}
					if err != nil {
						t.Errorf("submit: %v", err)
						continue
					}
					w.watch(t, st.ID)
					mu.Lock()
					ids = append(ids, st.ID)
					mu.Unlock()
				}
			}
		}(c)
	}
	wg.Wait()
	return ids, closed
}

// TestConcurrentLifecycle races submissions, dedup joins, completions
// and a drain against each other. In the first wave the leaders are held
// until every submission is in, so each spec runs once and every other
// submission joins it; every job must then end in exactly one terminal
// state, announced by exactly one done line. The second wave races a
// drain: every accepted job must still end terminal, and the service
// must leave no goroutine behind.
func TestConcurrentLifecycle(t *testing.T) {
	before := runtime.NumGoroutine()
	const clients, reps = 4, 5
	specs := []*xsim.CampaignSpec{table1Spec(t, 101), table1Spec(t, 102), table1Spec(t, 103)}

	svc := New(Config{Workers: 2})
	hold := make(chan struct{})
	svc.beforeRun = func(*job) { <-hold }
	w := newWatcher(svc)

	ids, closed := submitWave(t, svc, w, clients, reps, specs)
	if want := clients * reps * len(specs); len(ids) != want || closed != 0 {
		t.Fatalf("accepted %d submissions (%d refused), want %d", len(ids), closed, want)
	}
	close(hold)
	w.wait(t)

	m := svc.Metrics()
	if m.SimRuns != len(specs) {
		t.Errorf("SimRuns = %d, want %d (one per distinct spec)", m.SimRuns, len(specs))
	}
	if m.DedupJoins+m.CacheHits+m.SimRuns != m.Submitted || m.Submitted != len(ids) {
		t.Errorf("joins %d + hits %d + runs %d != submitted %d (accepted %d)",
			m.DedupJoins, m.CacheHits, m.SimRuns, m.Submitted, len(ids))
	}
	for _, st := range svc.Jobs() {
		if st.State != StateCompleted {
			t.Errorf("job %s ended %s (%s), want completed", st.ID, st.State, st.Error)
		}
	}
	if len(w.done) != len(ids) {
		t.Errorf("watched %d streams to the end, want %d", len(w.done), len(ids))
	}

	// Second wave: new specs and the cached ones again, submitted while
	// the service drains.
	wave2 := append([]*xsim.CampaignSpec{table1Spec(t, 201), table1Spec(t, 202), table1Spec(t, 203)}, specs...)
	drained := make(chan error, 1)
	go func() {
		time.Sleep(time.Millisecond)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		drained <- svc.Drain(ctx)
	}()
	ids2, _ := submitWave(t, svc, w, clients, reps, wave2)
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	w.wait(t)

	m = svc.Metrics()
	jobs := svc.Jobs()
	if len(jobs) != len(ids)+len(ids2) || m.Submitted != len(jobs) {
		t.Errorf("%d jobs listed, %d submitted, want %d", len(jobs), m.Submitted, len(ids)+len(ids2))
	}
	for _, st := range jobs {
		if !terminal(st.State) {
			t.Errorf("job %s is %s after drain", st.ID, st.State)
		}
	}
	if got := m.Completed + m.Failed + m.Cancelled + m.CacheHits; got != m.Submitted {
		t.Errorf("completed %d + failed %d + cancelled %d + cache hits %d = %d, want every one of %d submissions counted once",
			m.Completed, m.Failed, m.Cancelled, m.CacheHits, got, m.Submitted)
	}
	if m.QueueDepth != 0 {
		t.Errorf("queue depth %d after drain", m.QueueDepth)
	}

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		buf := make([]byte, 1<<16)
		t.Fatalf("goroutines: %d before, %d after drain\n%s", before, n, buf[:runtime.Stack(buf, true)])
	}
}

// TestServerRerunsTornStoredEntry pins that a stored result a crash left
// empty is not served: the campaign runs again, and its result is then
// the bytes a direct run produces.
func TestServerRerunsTornStoredEntry(t *testing.T) {
	dir := t.TempDir()
	store, err := jobstore.NewDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	spec := table1Spec(t, 9)
	key, err := spec.CacheKey()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, key+".json"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	svc, _ := startServer(t, Config{Workers: 1, Store: store})

	st, err := svc.Submit("alice", spec)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateQueued || st.Cached {
		t.Fatalf("submit over a torn entry = %+v, want queued, not cached", st)
	}
	lines, _, _ := svc.Subscribe(st.ID)
	for range lines {
	}
	served, ok, err := svc.Result(st.ID)
	if err != nil || !ok {
		t.Fatalf("Result = ok=%v err=%v", ok, err)
	}
	out, err := table1Spec(t, 9).RunWith(context.Background(), xsim.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	local, err := out.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(served, local) {
		t.Fatalf("served %q, want the direct run's %q", served, local)
	}
	if m := svc.Metrics(); m.SimRuns != 1 || m.CacheHits != 0 {
		t.Errorf("sim runs %d, cache hits %d; want 1 and 0", m.SimRuns, m.CacheHits)
	}
	if again, err := svc.Submit("bob", spec); err != nil || !again.Cached {
		t.Errorf("resubmit = %+v, %v; want a cache hit on the repaired entry", again, err)
	}
}
