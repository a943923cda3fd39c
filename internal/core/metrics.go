package core

import "xsim/internal/vclock"

// MetricsSnapshot exposes the engine's internal counters, making the
// scheduler's performance claims (by-value events, coordinator-free windows)
// continuously observable instead of one-off benchmark lore. Counters are
// accumulated per partition without synchronisation — each is only touched
// by its partition's worker — and aggregated here after Run.
type MetricsSnapshot struct {
	// EventsDispatched and Resumes count the processed work items: events
	// dispatched and VP resumes.
	EventsDispatched uint64
	Resumes          uint64
	// PoolHits and PoolMisses count events stored in a partition's event
	// queue into a chunk it already held or took back from the free
	// chunks vs into a freshly allocated chunk (events are values in the
	// queue's chunks; the names are the ones the benchmark harness reads),
	// so their sum is every push. A miss is one chunk allocation, in either
	// tier of the queue: a run's tail or the straggler heap reached a new
	// chunk and no chunk given back earlier was free.
	PoolHits   uint64
	PoolMisses uint64
	// EventRunAppends and EventHeapPushes split those pushes by where they
	// went: appended to an open sorted run, or into the straggler heap
	// (the rest opened a run). EventRunAppends over all pushes is how well
	// the traffic fits the runs; a queue that never got deeper than one
	// chunk opens none and sends every push to the heap.
	EventRunAppends uint64
	EventHeapPushes uint64
	// CrossEvents counts events routed between partitions (always 0 with
	// Workers = 1).
	CrossEvents uint64
	// EventHeapHighWater and ReadyHeapHighWater are the deepest any
	// partition's queues got — the working-set measure for the queues;
	// EventHeapHighWater counts the events of both tiers of the event
	// queue, runs and straggler heap together.
	// ReadyHeapHighWater doubles as the peak-runnable-VPs gauge: every
	// runnable (woken or not-yet-started) VP sits in a ready heap.
	EventHeapHighWater int
	ReadyHeapHighWater int
	// VP-lifecycle gauges for the carrier execution model (carrier.go).
	// CarriersSpawned counts carrier goroutines created over the run and
	// CarrierReuses counts VP starts served by an already-pooled carrier;
	// their sum is the number of VP starts in closure mode. CarriersHighWater
	// is the live-goroutine high-water over partitions (the bounded-execution
	// claim: it tracks peak concurrently-live VPs, not world size), and
	// CarrierIdleHighWater the deepest any partition's idle pool got.
	// CarriersLive is the number of carrier goroutines still alive when the
	// snapshot was taken — 0 after a clean teardown, making it the leak
	// gauge.
	CarriersSpawned      uint64
	CarrierReuses        uint64
	CarriersHighWater    int
	CarrierIdleHighWater int
	CarriersLive         int
	// ProgramSteps counts Program.Step invocations (0 in closure mode).
	ProgramSteps uint64
	// BarrierRounds counts parallel window rounds summed over partitions
	// (0 with Workers = 1; every partition runs the same number of
	// rounds, so this is rounds × Workers).
	BarrierRounds uint64
	// WindowWidthSum accumulates each partition round's safe-window width
	// (final horizon − global minimum; a window whose bound stayed open
	// counts up to one lookahead past its last item); WindowWidthSum /
	// BarrierRounds is the mean width, at least one lookahead.
	WindowWidthSum vclock.Duration
}

// Add accumulates other into m: counters sum, high-water marks take the
// maximum. The campaign layer uses it to pool metrics across many runs.
func (m *MetricsSnapshot) Add(other MetricsSnapshot) {
	m.EventsDispatched += other.EventsDispatched
	m.Resumes += other.Resumes
	m.PoolHits += other.PoolHits
	m.PoolMisses += other.PoolMisses
	m.EventRunAppends += other.EventRunAppends
	m.EventHeapPushes += other.EventHeapPushes
	m.CrossEvents += other.CrossEvents
	if other.EventHeapHighWater > m.EventHeapHighWater {
		m.EventHeapHighWater = other.EventHeapHighWater
	}
	if other.ReadyHeapHighWater > m.ReadyHeapHighWater {
		m.ReadyHeapHighWater = other.ReadyHeapHighWater
	}
	m.CarriersSpawned += other.CarriersSpawned
	m.CarrierReuses += other.CarrierReuses
	if other.CarriersHighWater > m.CarriersHighWater {
		m.CarriersHighWater = other.CarriersHighWater
	}
	if other.CarrierIdleHighWater > m.CarrierIdleHighWater {
		m.CarrierIdleHighWater = other.CarrierIdleHighWater
	}
	m.CarriersLive += other.CarriersLive
	m.ProgramSteps += other.ProgramSteps
	m.BarrierRounds += other.BarrierRounds
	m.WindowWidthSum += other.WindowWidthSum
}

// EventRunShare returns the share of event-queue pushes that appended to
// a sorted run, or 0 when nothing was pushed.
func (m MetricsSnapshot) EventRunShare() float64 {
	pushes := m.PoolHits + m.PoolMisses
	if pushes == 0 {
		return 0
	}
	return float64(m.EventRunAppends) / float64(pushes)
}

// AvgWindowWidth returns the mean safe-window width per partition round,
// or 0 for sequential runs.
func (m MetricsSnapshot) AvgWindowWidth() vclock.Duration {
	if m.BarrierRounds == 0 {
		return 0
	}
	return m.WindowWidthSum / vclock.Duration(m.BarrierRounds)
}

// Metrics aggregates the per-partition counters. Call it after Run
// returns; it is not synchronised against running workers.
func (e *Engine) Metrics() MetricsSnapshot {
	var m MetricsSnapshot
	for _, p := range e.parts {
		m.EventsDispatched += p.events
		m.Resumes += p.resumes
		m.PoolHits += p.eventQ.pushes - p.eventQ.allocs
		m.PoolMisses += p.eventQ.allocs
		m.EventRunAppends += p.eventQ.appends
		m.EventHeapPushes += p.eventQ.heapPushes()
		m.CrossEvents += p.crossEvents
		if p.eventQ.hi > m.EventHeapHighWater {
			m.EventHeapHighWater = p.eventQ.hi
		}
		if p.ready.hi > m.ReadyHeapHighWater {
			m.ReadyHeapHighWater = p.ready.hi
		}
		m.CarriersSpawned += p.carriersSpawned
		m.CarrierReuses += p.carrierReuses
		if p.carriersHi > m.CarriersHighWater {
			m.CarriersHighWater = p.carriersHi
		}
		if p.carrierIdleHi > m.CarrierIdleHighWater {
			m.CarrierIdleHighWater = p.carrierIdleHi
		}
		m.CarriersLive += p.carriersLive
		m.ProgramSteps += p.progSteps
		m.BarrierRounds += p.rounds
		m.WindowWidthSum += p.widthSum
	}
	return m
}
