// queue.go implements the campaign service's admission queue: per-tenant
// FIFOs drained by weighted round-robin, with per-tenant quotas enforced
// at submission. Fairness is a property of pop order alone — a tenant
// with weight w receives w consecutive grants per cycle across the
// tenants that have work — so it is deterministic given the push
// sequence and testable without wall-clock. The queue holds no lock and
// never blocks: the Service's mutex guards it, and workers wait for work
// on the Service's condition variable.
package service

import (
	"errors"
	"fmt"
)

// ErrQuotaExceeded reports a submission rejected because the tenant
// already has its quota of unfinished jobs; the HTTP layer maps it to
// 429.
var ErrQuotaExceeded = errors.New("service: tenant quota exceeded")

// ErrQueueClosed reports a submission after intake closed (server
// draining); the HTTP layer maps it to 503.
var ErrQueueClosed = errors.New("service: queue closed")

// QueueConfig parameterises the fair queue.
type QueueConfig struct {
	// Weights sets per-tenant round-robin weights; a tenant without an
	// entry has weight 1. A tenant with weight w is granted w consecutive
	// pops per cycle while it has work.
	Weights map[string]int
	// DefaultQuota caps a tenant's unfinished jobs — queued plus running
	// — when Quotas has no entry (0 = unlimited).
	DefaultQuota int
	// Quotas overrides per-tenant quotas.
	Quotas map[string]int
}

// tenantQueue is one tenant's FIFO plus its fairness state.
type tenantQueue struct {
	name string
	jobs []*job
	// inflight counts unfinished jobs (queued + running) for quota
	// enforcement; Release decrements it when a job finishes.
	inflight int
	// credit is the tenant's remaining grants in the current round-robin
	// cycle; it refills to the tenant's weight when every tenant with
	// work is out of credit.
	credit int
}

// queue is the weighted fair scheduler.
type queue struct {
	cfg QueueConfig

	tenants map[string]*tenantQueue
	// order fixes the round-robin scan sequence (first-seen order), so
	// scheduling is deterministic.
	order  []*tenantQueue
	closed bool
	queued int
}

// newQueue builds an empty queue.
func newQueue(cfg QueueConfig) *queue {
	return &queue{cfg: cfg, tenants: make(map[string]*tenantQueue)}
}

// weight returns a tenant's configured round-robin weight.
func (q *queue) weight(tenant string) int {
	if w, ok := q.cfg.Weights[tenant]; ok && w > 0 {
		return w
	}
	return 1
}

// quota returns a tenant's configured quota (0 = unlimited).
func (q *queue) quota(tenant string) int {
	if limit, ok := q.cfg.Quotas[tenant]; ok {
		return limit
	}
	return q.cfg.DefaultQuota
}

// tenant returns (creating if needed) a tenant's queue state.
func (q *queue) tenant(name string) *tenantQueue {
	tq, ok := q.tenants[name]
	if !ok {
		tq = &tenantQueue{name: name, credit: q.weight(name)}
		q.tenants[name] = tq
		q.order = append(q.order, tq)
	}
	return tq
}

// Push enqueues a job for its tenant, enforcing the tenant's quota
// against its unfinished (queued + running) count.
func (q *queue) Push(j *job) error {
	if q.closed {
		return ErrQueueClosed
	}
	tq := q.tenant(j.tenant)
	if limit := q.quota(j.tenant); limit > 0 && tq.inflight >= limit {
		return fmt.Errorf("%w: tenant %q has %d unfinished jobs (quota %d)",
			ErrQuotaExceeded, j.tenant, tq.inflight, limit)
	}
	tq.inflight++
	tq.jobs = append(tq.jobs, j)
	q.queued++
	return nil
}

// Pop removes and returns the next job by weighted round-robin, or
// ok=false when nothing is queued. It scans tenants in first-seen order
// for one with queued work and remaining credit; when every tenant with
// work is out of credit, it refills all credits (one cycle ends) and
// scans again. Each grant consumes one credit, so a cycle gives tenant t
// at most weight(t) pops — the bounded-skew fairness the service
// promises.
func (q *queue) Pop() (*job, bool) {
	if q.queued == 0 {
		return nil, false
	}
	for {
		for _, tq := range q.order {
			if len(tq.jobs) == 0 || tq.credit <= 0 {
				continue
			}
			tq.credit--
			j := tq.jobs[0]
			tq.jobs = tq.jobs[1:]
			q.queued--
			return j, true
		}
		// Every tenant with work exhausted its credit: start a new cycle.
		for _, tq := range q.order {
			tq.credit = q.weight(tq.name)
		}
	}
}

// Release returns one unit of a tenant's quota when a job finishes
// (completed, failed, or cancelled).
func (q *queue) Release(tenant string) {
	if tq, ok := q.tenants[tenant]; ok && tq.inflight > 0 {
		tq.inflight--
	}
}

// Close stops intake: subsequent Pushes fail with ErrQueueClosed, while
// Pops still drain the backlog.
func (q *queue) Close() { q.closed = true }

// Flush removes and returns every queued job without running them — the
// drain path uses it to mark the backlog cancelled.
func (q *queue) Flush() []*job {
	var out []*job
	for _, tq := range q.order {
		out = append(out, tq.jobs...)
		tq.jobs = nil
	}
	q.queued = 0
	return out
}
