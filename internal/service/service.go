// Package service implements the campaign service behind cmd/xsim-server:
// an in-process job system that accepts wire-form campaign specs
// (xsim.CampaignSpec), schedules them across tenants with weighted
// fairness and quotas, executes them through the existing experiment
// drivers, and caches canonical outcomes content-addressed by the
// canonical spec encoding. The layering is cmd → service → store: this
// package owns queueing, execution, dedup, progress streaming, and
// metrics; jobstore owns result bytes; the HTTP handlers in http.go are a
// thin status-code mapping over the methods here.
package service

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"xsim"
	"xsim/internal/jobstore"
)

// Config parameterises a Service.
type Config struct {
	// Workers is the number of concurrent campaign executors (default
	// 2). Each campaign additionally parallelises internally through its
	// spec's pool, so a small worker count saturates the machine.
	Workers int
	// Store holds canonical outcome bytes keyed by canonical spec hash
	// (default an in-memory store).
	Store jobstore.Store
	// Queue configures per-tenant weights and quotas.
	Queue QueueConfig
	// Logf receives service logs; nil discards them.
	Logf func(format string, args ...any)
}

// Job states.
const (
	StateQueued    = "queued"
	StateRunning   = "running"
	StateCompleted = "completed"
	StateFailed    = "failed"
	StateCancelled = "cancelled"
)

// job is one submitted campaign. The fields from state on change over
// the job's life: they, and the job methods, are under Service.mu, and
// the event lines the methods publish are marshalled before it is taken.
type job struct {
	id      string
	tenant  string
	key     string
	kind    xsim.CampaignKind
	spec    *xsim.CampaignSpec
	created time.Time

	state  string
	cached bool // satisfied from cache or by joining an in-flight leader
	errMsg string
	events [][]byte // NDJSON replay buffer, one line per event
	subs   map[chan []byte]struct{}
	// followers are jobs for the same cache key submitted while this
	// leader was in flight; they finish when the leader does.
	followers []*job
}

// JobStatus is a job's wire-form status document.
type JobStatus struct {
	ID      string            `json:"id"`
	Tenant  string            `json:"tenant"`
	Kind    xsim.CampaignKind `json:"kind"`
	Key     string            `json:"key"`
	State   string            `json:"state"`
	Cached  bool              `json:"cached"`
	Error   string            `json:"error,omitempty"`
	Created time.Time         `json:"created"`
}

// Metrics is a snapshot of the service counters. CacheHits counts
// submissions answered from the result store without touching the queue;
// DedupJoins counts submissions that attached to an in-flight leader for
// the same key; SimRuns counts campaigns actually executed — the
// determinism contract's "resubmission runs zero new simulations" is
// asserted against these.
type Metrics struct {
	Submitted  int `json:"submitted"`
	Completed  int `json:"completed"`
	Failed     int `json:"failed"`
	Cancelled  int `json:"cancelled"`
	CacheHits  int `json:"cache_hits"`
	CacheMiss  int `json:"cache_misses"`
	DedupJoins int `json:"dedup_joins"`
	SimRuns    int `json:"sim_runs"`
	QueueDepth int `json:"queue_depth"`
	StoredKeys int `json:"stored_keys"`
}

// Service is the campaign service core. Its one mutex, mu, guards every
// job's mutable fields, the fair queue, the leader table and the
// counters, so each job transition is one critical section; idle workers
// wait on work, a condition bound to mu.
type Service struct {
	cfg   Config
	store jobstore.Store

	runCtx    context.Context
	runCancel context.CancelFunc
	wg        sync.WaitGroup

	mu      sync.Mutex
	work    sync.Cond
	q       *queue
	jobs    map[string]*job
	order   []*job
	leaders map[string]*job // cache key → in-flight leader job
	seq     int
	m       Metrics

	// beforeRun, when set, is called by a worker with each job it takes
	// off the queue, before the job runs. It is nil outside this package's
	// tests, which hold a leader in flight with it; set it before the
	// first Submit.
	beforeRun func(*job)
}

// New builds a Service and starts its workers.
func New(cfg Config) *Service {
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.Store == nil {
		cfg.Store = jobstore.NewMem()
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Service{
		cfg:       cfg,
		store:     cfg.Store,
		q:         newQueue(cfg.Queue),
		runCtx:    ctx,
		runCancel: cancel,
		jobs:      make(map[string]*job),
		leaders:   make(map[string]*job),
	}
	s.work.L = &s.mu
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

func (s *Service) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// Submit validates and admits one campaign for a tenant. The spec is
// normalized and validated first (*xsim.SpecError → 400); its cache key
// is computed from the canonical encoding; a stored result completes the
// job instantly (cache hit), an in-flight computation of the same key is
// joined (dedup), and otherwise the job is enqueued under the tenant's
// quota (ErrQuotaExceeded → 429). A rejected submission uses up a job id
// but counts in no metric.
func (s *Service) Submit(tenant string, spec *xsim.CampaignSpec) (JobStatus, error) {
	if tenant == "" {
		tenant = "default"
	}
	key, err := spec.CacheKey() // normalizes + validates a copy
	if err != nil {
		return JobStatus{}, err
	}

	hitLine := doneLine(StateCompleted, "", true)
	s.mu.Lock()
	s.seq++
	j := &job{
		id:      fmt.Sprintf("c%06d", s.seq),
		tenant:  tenant,
		key:     key,
		kind:    spec.Kind,
		spec:    spec,
		created: time.Now(),
		state:   StateQueued,
		subs:    make(map[chan []byte]struct{}),
	}
	var outcome string
	leader := s.leaders[key]
	_, stored, serr := s.store.Get(key)
	switch {
	case serr == nil && stored:
		// Cache: a stored canonical outcome answers the job instantly.
		s.m.CacheHits++
		j.finish(StateCompleted, "", true, hitLine)
		outcome = "cache hit"
	case leader != nil:
		// Dedup: join the in-flight leader computing the same key — the
		// cell is deterministic, so computing it twice buys nothing.
		s.m.CacheMiss++
		s.m.DedupJoins++
		leader.followers = append(leader.followers, j)
		outcome = "joined " + leader.id
	default:
		// Leader: enqueue under the tenant's quota.
		if err := s.q.Push(j); err != nil {
			s.mu.Unlock()
			return JobStatus{}, err
		}
		s.m.CacheMiss++
		s.leaders[key] = j
		s.work.Signal()
		outcome = "queued"
	}
	s.m.Submitted++
	s.jobs[j.id] = j
	s.order = append(s.order, j)
	status := j.status()
	s.mu.Unlock()
	s.logf("job %s tenant=%s key=%.12s… %s", j.id, tenant, key, outcome)
	return status, nil
}

// next takes the next job off the queue, waiting while intake is open
// and nothing is queued; it returns nil once intake has closed and the
// backlog is gone.
func (s *Service) next() *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if j, ok := s.q.Pop(); ok {
			return j
		}
		if s.q.closed {
			return nil
		}
		s.work.Wait()
	}
}

// worker executes queued jobs until intake closes and the queue drains.
func (s *Service) worker() {
	defer s.wg.Done()
	for j := s.next(); j != nil; j = s.next() {
		s.runJob(j)
	}
}

// runJob executes one leader job through the experiment drivers, stores
// its canonical outcome, and finishes it and its followers.
func (s *Service) runJob(j *job) {
	if s.beforeRun != nil {
		s.beforeRun(j)
	}
	running, _ := json.Marshal(map[string]any{"event": "state", "state": StateRunning})
	s.mu.Lock()
	j.state = StateRunning
	j.publish(running)
	s.m.SimRuns++
	s.mu.Unlock()

	out, err := j.spec.RunWith(s.runCtx, xsim.RunOptions{
		Logf: func(format string, args ...any) { s.logf("job %s: "+format, append([]any{j.id}, args...)...) },
		OnProgress: func(ev xsim.ProgressEvent) {
			line, _ := json.Marshal(map[string]any{"event": "progress", "data": ev})
			s.mu.Lock()
			j.publish(line)
			s.mu.Unlock()
		},
	})
	if err != nil {
		state := StateFailed
		if s.runCtx.Err() != nil {
			state = StateCancelled
		}
		s.logf("job %s: %s: %v", j.id, state, err)
		s.completeJob(j, state, err.Error())
		return
	}
	data, err := out.Canonical()
	if err == nil {
		err = s.store.Put(j.key, data)
	}
	if err != nil {
		s.logf("job %s: storing result: %v", j.id, err)
		s.completeJob(j, StateFailed, err.Error())
		return
	}
	s.logf("job %s: completed, %d result bytes", j.id, len(data))
	s.completeJob(j, StateCompleted, "")
}

// completeJob finishes a leader and its followers, releases the leader's
// quota, and counts the outcomes.
func (s *Service) completeJob(j *job, state, errMsg string) {
	leaderLine, followerLine := doneLine(state, errMsg, false), doneLine(state, errMsg, true)
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.leaders, j.key)
	s.q.Release(j.tenant)
	j.finish(state, errMsg, false, leaderLine)
	for _, f := range j.followers {
		f.finish(state, errMsg, true, followerLine)
	}
	n := 1 + len(j.followers)
	j.followers = nil
	switch state {
	case StateCompleted:
		s.m.Completed += n
	case StateFailed:
		s.m.Failed += n
	case StateCancelled:
		s.m.Cancelled += n
	}
}

// Drain gracefully shuts the service down: intake closes (new Submits
// fail with ErrQueueClosed), the queued backlog is cancelled without
// running, in-flight campaigns are cancelled through the simulator's
// cancellation path (Engine.Cancel at the next window boundary), and
// workers are awaited until ctx expires. Completed results are already
// flushed to the store by the time their jobs finish, so a drained
// server loses only cancelled work.
func (s *Service) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.q.Close()
	backlog := s.q.Flush()
	s.work.Broadcast()
	s.mu.Unlock()
	for _, j := range backlog {
		s.completeJob(j, StateCancelled, "server draining")
	}
	s.runCancel()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("service: drain: %w", ctx.Err())
	}
}

// --- introspection --------------------------------------------------------

// Job returns a job's status by ID.
func (s *Service) Job(id string) (JobStatus, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobStatus{}, false
	}
	return j.status(), true
}

// Jobs lists every job in submission order.
func (s *Service) Jobs() []JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobStatus, 0, len(s.order))
	for _, j := range s.order {
		out = append(out, j.status())
	}
	return out
}

// Result returns a finished job's canonical outcome bytes.
func (s *Service) Result(id string) ([]byte, bool, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	completed := ok && j.state == StateCompleted
	s.mu.Unlock()
	if !completed {
		return nil, false, nil
	}
	return s.store.Get(j.key)
}

// Metrics snapshots the service counters.
func (s *Service) Metrics() Metrics {
	s.mu.Lock()
	m := s.m
	m.QueueDepth = s.q.queued
	s.mu.Unlock()
	if n, err := s.store.Len(); err == nil {
		m.StoredKeys = n
	}
	return m
}

// Subscribe streams a job's NDJSON event lines: the replay buffer first,
// then live events until the job finishes. The returned channel closes
// after the terminal event; cancel detaches early. ok is false for an
// unknown job.
func (s *Service) Subscribe(id string) (lines <-chan []byte, cancel func(), ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, found := s.jobs[id]
	if !found {
		return nil, nil, false
	}
	// Capacity for the whole replay plus live headroom; the fan-out
	// drops subscribers whose buffers fill.
	ch := make(chan []byte, len(j.events)+256)
	for _, line := range j.events {
		ch <- line
	}
	if terminal(j.state) {
		close(ch)
		return ch, func() {}, true
	}
	j.subs[ch] = struct{}{}
	cancel = func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		if _, ok := j.subs[ch]; ok {
			delete(j.subs, ch)
			close(ch)
		}
	}
	return ch, cancel, true
}

// --- job internals --------------------------------------------------------

// terminal reports whether a job in state has finished.
func terminal(state string) bool {
	return state == StateCompleted || state == StateFailed || state == StateCancelled
}

// doneLine is a job's terminal event.
func doneLine(state, errMsg string, cached bool) []byte {
	term := map[string]any{"event": "done", "state": state}
	if errMsg != "" {
		term["error"] = errMsg
	}
	if cached {
		term["cached"] = true
	}
	line, _ := json.Marshal(term)
	return line
}

// status snapshots a job's wire status.
func (j *job) status() JobStatus {
	return JobStatus{
		ID:      j.id,
		Tenant:  j.tenant,
		Kind:    j.kind,
		Key:     j.key,
		State:   j.state,
		Cached:  j.cached,
		Error:   j.errMsg,
		Created: j.created,
	}
}

// publish appends one event line to the replay buffer and fans it out to
// live subscribers. A subscriber too slow to keep up is dropped (its
// channel closed) rather than allowed to stall the campaign.
func (j *job) publish(line []byte) {
	j.events = append(j.events, line)
	for ch := range j.subs {
		select {
		case ch <- line:
		default:
			delete(j.subs, ch)
			close(ch)
		}
	}
}

// finish moves the job to a terminal state, publishes the terminal line,
// and closes every live subscriber. A job finishes once; later calls do
// nothing.
func (j *job) finish(state, errMsg string, cached bool, line []byte) {
	if terminal(j.state) {
		return
	}
	j.state = state
	j.errMsg = errMsg
	j.cached = cached
	j.publish(line)
	for ch := range j.subs {
		delete(j.subs, ch)
		close(ch)
	}
}
