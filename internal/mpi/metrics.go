package mpi

import (
	"sort"
	"sync"

	"xsim/internal/vclock"
)

// The MPI layer counts its own traffic the way the paper's performance-tool
// half reports it: messages and bytes by protocol, collective operations,
// unexpected-queue pressure, and — the Section V quantity — failure
// detection latency (time of failure → last surviving rank's detection).
//
// Traffic counters live where they are touched: sends and collectives
// count on the calling rank's partition pool (dpPool), and the
// unexpected-queue depth on the receiving rank's Env, with its
// high-water mark on that rank's pool. A pool is only touched by its
// partition, so increments need no atomics and no locks — the
// aggregation in Metrics runs after the engine has joined its workers.
// Failure records are shared across partitions and guarded by a mutex;
// failures are rare, so the lock is off every message path.

// countSend tallies one point-to-point send.
func (p *dpPool) countSend(size int, rendezvous bool) {
	if rendezvous {
		p.rdvMsgs++
		p.rdvBytes += uint64(size)
	} else {
		p.eagerMsgs++
		p.eagerBytes += uint64(size)
	}
}

// unexpectedDelta moves a rank's unexpected-queue depth and raises its
// partition's high-water mark.
func (e *Env) unexpectedDelta(delta int) {
	e.cold.unexpNow += delta
	e.dp.unexpMax = max(e.dp.unexpMax, e.cold.unexpNow)
}

// metrics holds the world's failure-detection records.
type metrics struct {
	mu       sync.Mutex
	failures map[int]*failureRec // by failed world rank
}

// failureRec accumulates one failure's detection behaviour.
type failureRec struct {
	failedAt     vclock.Time
	notifiedAt   vclock.Time
	lastDetectAt vclock.Time
	detectors    map[int]bool
}

// recordFailure opens the detection record for a failed rank.
func (m *metrics) recordFailure(rank int, failedAt, notifiedAt vclock.Time) {
	m.mu.Lock()
	if _, ok := m.failures[rank]; !ok {
		m.failures[rank] = &failureRec{
			failedAt:   failedAt,
			notifiedAt: notifiedAt,
			detectors:  make(map[int]bool),
		}
	}
	m.mu.Unlock()
}

// recordDetection notes that detector first observed failed's failure (an
// operation completed with ProcFailedError) at virtual time at. Only the
// first detection per surviving rank counts; the record keeps the latest
// such first detection — the moment the last surviving rank learned.
func (m *metrics) recordDetection(detector, failed int, at vclock.Time) {
	m.mu.Lock()
	rec := m.failures[failed]
	if rec != nil && !rec.detectors[detector] {
		rec.detectors[detector] = true
		if at > rec.lastDetectAt {
			rec.lastDetectAt = at
		}
	}
	m.mu.Unlock()
}

// FailureMetric reports one injected failure's detection behaviour.
type FailureMetric struct {
	// Rank is the failed world rank.
	Rank int
	// FailedAt is the time of failure.
	FailedAt vclock.Time
	// NotifiedAt is when the simulator-internal failure notification
	// reached the surviving processes (FailedAt plus the system link latency).
	NotifiedAt vclock.Time
	// LastDetectAt is the virtual time the last surviving rank first
	// detected the failure (a pending operation completed with
	// ProcFailedError). Zero if no rank detected it.
	LastDetectAt vclock.Time
	// Detections is the number of distinct ranks that detected the failure.
	Detections int
}

// DetectionLatency is the paper's Section V quantity: time of failure to
// the last surviving rank's detection. It returns -1 if nothing detected
// the failure (no surviving rank communicated with the failed one).
func (f FailureMetric) DetectionLatency() vclock.Duration {
	if f.Detections == 0 {
		return -1
	}
	return f.LastDetectAt.Sub(f.FailedAt)
}

// MetricsSnapshot aggregates the world's MPI-layer counters. Values are
// totals across ranks except UnexpectedMax, which is the maximum per-rank
// high-water mark.
type MetricsSnapshot struct {
	// EagerMsgs and EagerBytes count point-to-point sends below the eager
	// threshold.
	EagerMsgs  uint64
	EagerBytes uint64
	// RendezvousMsgs and RendezvousBytes count rendezvous-protocol sends.
	RendezvousMsgs  uint64
	RendezvousBytes uint64
	// CollectiveOps counts collective calls at their public entry points,
	// summed over participating ranks.
	CollectiveOps uint64
	// UnexpectedMax is the deepest any rank's unexpected-message queue got.
	UnexpectedMax int

	// Data-plane pool behaviour (see internal/mpi/pool.go), summed across
	// partitions. PoolHits/PoolMisses count the pooled objects the run
	// asked for (requests, and the on-demand cold records, envelopes and
	// messages) that were served without allocating, from a free list, vs
	// by allocating; a message or control message that needs no object
	// counts in neither. BufHits/BufMisses count payload-buffer reuse. Counters
	// are run totals, not digest material: they vary with the partition
	// layout.
	PoolHits   uint64
	PoolMisses uint64
	BufHits    uint64
	BufMisses  uint64
	// BufHighWater is the peak of pooled payload bytes checked out at
	// once, summed across partitions within a run — the resident cost of
	// in-flight payloads. Add keeps the maximum across runs.
	BufHighWater int64

	// Failures describes each injected failure's detection, ordered by
	// failed rank.
	Failures []FailureMetric
}

// Add accumulates other into s: traffic counters sum, UnexpectedMax takes
// the maximum, and failure records are concatenated. The campaign layer
// uses it to pool metrics across many runs.
func (s *MetricsSnapshot) Add(other MetricsSnapshot) {
	s.EagerMsgs += other.EagerMsgs
	s.EagerBytes += other.EagerBytes
	s.RendezvousMsgs += other.RendezvousMsgs
	s.RendezvousBytes += other.RendezvousBytes
	s.CollectiveOps += other.CollectiveOps
	if other.UnexpectedMax > s.UnexpectedMax {
		s.UnexpectedMax = other.UnexpectedMax
	}
	s.PoolHits += other.PoolHits
	s.PoolMisses += other.PoolMisses
	s.BufHits += other.BufHits
	s.BufMisses += other.BufMisses
	if other.BufHighWater > s.BufHighWater {
		s.BufHighWater = other.BufHighWater
	}
	s.Failures = append(s.Failures, other.Failures...)
}

// Metrics aggregates the partitions' counters into a snapshot. Call it
// after Run returns; it is not synchronised against a running engine's
// partitions.
func (w *World) Metrics() MetricsSnapshot {
	var s MetricsSnapshot
	for _, p := range w.pools {
		s.EagerMsgs += p.eagerMsgs
		s.EagerBytes += p.eagerBytes
		s.RendezvousMsgs += p.rdvMsgs
		s.RendezvousBytes += p.rdvBytes
		s.CollectiveOps += p.collectives
		s.UnexpectedMax = max(s.UnexpectedMax, p.unexpMax)
		s.PoolHits += p.envs.hits + p.reqs.hits + p.colds.hits + p.msgs.hits
		s.PoolMisses += p.envs.misses + p.reqs.misses + p.colds.misses + p.msgs.misses
		s.BufHits += p.bufHits
		s.BufMisses += p.bufMisses
		s.BufHighWater += p.bufHighWater
	}
	w.m.mu.Lock()
	for rank, rec := range w.m.failures {
		s.Failures = append(s.Failures, FailureMetric{
			Rank:         rank,
			FailedAt:     rec.failedAt,
			NotifiedAt:   rec.notifiedAt,
			LastDetectAt: rec.lastDetectAt,
			Detections:   len(rec.detectors),
		})
	}
	w.m.mu.Unlock()
	sort.Slice(s.Failures, func(i, j int) bool { return s.Failures[i].Rank < s.Failures[j].Rank })
	return s
}
