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

// job is one submitted campaign.
type job struct {
	id      string
	tenant  string
	key     string
	kind    xsim.CampaignKind
	spec    *xsim.CampaignSpec
	created time.Time

	mu     sync.Mutex
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

// Service is the campaign service core.
type Service struct {
	cfg   Config
	store jobstore.Store
	q     *queue

	runCtx    context.Context
	runCancel context.CancelFunc
	wg        sync.WaitGroup

	mu      sync.Mutex
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
// quota (ErrQuotaExceeded → 429).
func (s *Service) Submit(tenant string, spec *xsim.CampaignSpec) (JobStatus, error) {
	if tenant == "" {
		tenant = "default"
	}
	key, err := spec.CacheKey() // normalizes + validates a copy
	if err != nil {
		return JobStatus{}, err
	}

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
	s.m.Submitted++

	// Cache: a stored canonical outcome answers the job instantly.
	if _, ok, serr := s.store.Get(key); serr == nil && ok {
		s.m.CacheHits++
		s.jobs[j.id] = j
		s.order = append(s.order, j)
		s.mu.Unlock()
		j.finish(StateCompleted, "", true)
		s.logf("job %s tenant=%s key=%.12s… cache hit", j.id, tenant, key)
		return s.status(j), nil
	}
	s.m.CacheMiss++

	// Dedup: join an in-flight leader computing the same key — the cell
	// is deterministic, so computing it twice buys nothing.
	if leader, ok := s.leaders[key]; ok {
		s.m.DedupJoins++
		s.jobs[j.id] = j
		s.order = append(s.order, j)
		leader.mu.Lock()
		leader.followers = append(leader.followers, j)
		leader.mu.Unlock()
		s.mu.Unlock()
		s.logf("job %s tenant=%s key=%.12s… joined %s", j.id, tenant, key, leader.id)
		return s.status(j), nil
	}
	// Leader: enqueue under the tenant's quota. The push happens while
	// s.mu is still held so that registering the leader is atomic with
	// queueing it — a worker cannot finish the job (which deletes the
	// leader entry) before the entry exists. Lock order s.mu → q.mu is
	// used nowhere in reverse.
	queued := s.status(j) // before a worker can take the job and move its state
	if err := s.q.Push(j); err != nil {
		// Rejected submissions (quota, drain) never become jobs: undo
		// the admission counters so metrics reflect accepted work only.
		s.m.Submitted--
		s.m.CacheMiss--
		s.mu.Unlock()
		return JobStatus{}, err
	}
	s.jobs[j.id] = j
	s.order = append(s.order, j)
	s.leaders[key] = j
	s.mu.Unlock()
	s.logf("job %s tenant=%s key=%.12s… queued", j.id, tenant, key)
	return queued, nil
}

// worker executes queued jobs until the queue closes and drains.
func (s *Service) worker() {
	defer s.wg.Done()
	for {
		j, ok := s.q.Pop()
		if !ok {
			return
		}
		s.runJob(j)
	}
}

// runJob executes one leader job through the experiment drivers, stores
// its canonical outcome, and finishes it and its followers.
func (s *Service) runJob(j *job) {
	if s.beforeRun != nil {
		s.beforeRun(j)
	}
	j.setState(StateRunning)
	j.publish(map[string]any{"event": "state", "state": StateRunning})

	s.mu.Lock()
	s.m.SimRuns++
	s.mu.Unlock()

	out, err := j.spec.RunWith(s.runCtx, xsim.RunOptions{
		Logf: func(format string, args ...any) { s.logf("job %s: "+format, append([]any{j.id}, args...)...) },
		OnProgress: func(ev xsim.ProgressEvent) {
			j.publish(map[string]any{"event": "progress", "data": ev})
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

// completeJob finishes a leader and its followers, releases quota, and
// updates counters.
func (s *Service) completeJob(j *job, state, errMsg string) {
	s.mu.Lock()
	delete(s.leaders, j.key)
	s.countFinish(state)
	s.mu.Unlock()

	j.mu.Lock()
	followers := j.followers
	j.followers = nil
	j.mu.Unlock()

	j.finish(state, errMsg, false)
	s.q.Release(j.tenant)
	for _, f := range followers {
		s.mu.Lock()
		s.countFinish(state)
		s.mu.Unlock()
		f.finish(state, errMsg, true)
	}
}

// countFinish updates the outcome counters for one finished job.
// Callers hold s.mu.
func (s *Service) countFinish(state string) {
	switch state {
	case StateCompleted:
		s.m.Completed++
	case StateFailed:
		s.m.Failed++
	case StateCancelled:
		s.m.Cancelled++
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
	s.q.Close()
	for _, j := range s.q.Flush() {
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

// status snapshots a job's wire status.
func (s *Service) status(j *job) JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
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

// Job returns a job's status by ID.
func (s *Service) Job(id string) (JobStatus, bool) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return JobStatus{}, false
	}
	return s.status(j), true
}

// Jobs lists every job in submission order.
func (s *Service) Jobs() []JobStatus {
	s.mu.Lock()
	order := append([]*job(nil), s.order...)
	s.mu.Unlock()
	out := make([]JobStatus, 0, len(order))
	for _, j := range order {
		out = append(out, s.status(j))
	}
	return out
}

// Result returns a finished job's canonical outcome bytes.
func (s *Service) Result(id string) ([]byte, bool, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return nil, false, nil
	}
	j.mu.Lock()
	state, key := j.state, j.key
	j.mu.Unlock()
	if state != StateCompleted {
		return nil, false, nil
	}
	return s.store.Get(key)
}

// Metrics snapshots the service counters.
func (s *Service) Metrics() Metrics {
	s.mu.Lock()
	m := s.m
	s.mu.Unlock()
	m.QueueDepth = s.q.Depth()
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
	j, found := s.jobs[id]
	s.mu.Unlock()
	if !found {
		return nil, nil, false
	}
	return j.subscribe()
}

// --- job internals --------------------------------------------------------

func (j *job) setState(state string) {
	j.mu.Lock()
	j.state = state
	j.mu.Unlock()
}

// publish appends one event line to the replay buffer and fans it out to
// live subscribers. A subscriber too slow to keep up is dropped (its
// channel closed) rather than allowed to stall the campaign.
func (j *job) publish(ev map[string]any) {
	line, err := json.Marshal(ev)
	if err != nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.publishLocked(line)
}

func (j *job) publishLocked(line []byte) {
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

// finish moves the job to a terminal state, publishes the terminal
// event, and closes every live subscriber.
func (j *job) finish(state, errMsg string, cached bool) {
	term := map[string]any{"event": "done", "state": state}
	if errMsg != "" {
		term["error"] = errMsg
	}
	if cached {
		term["cached"] = true
	}
	line, _ := json.Marshal(term)

	j.mu.Lock()
	if j.state == StateCompleted || j.state == StateFailed || j.state == StateCancelled {
		j.mu.Unlock()
		return
	}
	j.state = state
	j.errMsg = errMsg
	j.cached = cached
	j.publishLocked(line)
	for ch := range j.subs {
		delete(j.subs, ch)
		close(ch)
	}
	j.mu.Unlock()
}

// subscribe attaches a live channel carrying the replay buffer followed
// by future events.
func (j *job) subscribe() (<-chan []byte, func(), bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	// Capacity for the whole replay plus live headroom; the fan-out
	// drops subscribers whose buffers fill.
	ch := make(chan []byte, len(j.events)+256)
	for _, line := range j.events {
		ch <- line
	}
	terminal := j.state == StateCompleted || j.state == StateFailed || j.state == StateCancelled
	if terminal {
		close(ch)
		return ch, func() {}, true
	}
	j.subs[ch] = struct{}{}
	cancel := func() {
		j.mu.Lock()
		if _, ok := j.subs[ch]; ok {
			delete(j.subs, ch)
			close(ch)
		}
		j.mu.Unlock()
	}
	return ch, cancel, true
}
