// Package trace records simulator events for timeline analysis — the
// performance-tool half of the toolkit (xSim is "designed like a
// traditional performance tool"). The simulated MPI layer emits one typed
// event per operation (sends, receive posts, completions, failures,
// detections, aborts); the buffer renders merged, time-ordered exports
// (CSV, Chrome trace-event JSON, per-rank summary tables) for external
// tooling.
//
// The recorder is sharded: ranks hash to independent ring buffers, each
// with its own lock, so partitions of the parallel engine record
// concurrently without serialising on a global mutex. Events carry fixed
// typed fields (kind, peer, tag, size) instead of preformatted strings, so
// the record path performs no formatting and, once a bounded shard's ring
// is warm, no allocation; human-readable detail strings are derived only
// at export time.
package trace

import (
	"sort"
	"strconv"
	"sync"

	"xsim/internal/vclock"
)

// Kind classifies a recorded event.
type Kind uint8

// Event kinds. KindUser is the catch-all for application-defined events
// carrying a free-form Detail string; the rest are emitted by the
// simulated MPI layer.
const (
	// KindUser is an application-defined event; Detail carries its text.
	KindUser Kind = iota
	// KindSend is a message send (Peer = destination, Tag, Size; the
	// FlagRendezvous flag distinguishes the protocol).
	KindSend
	// KindRecvPost is a receive post (Peer = source or -1 for
	// ANY_SOURCE, Tag).
	KindRecvPost
	// KindComplete is a request completion (Peer; FlagSendOp marks send
	// completions, FlagError failed ones).
	KindComplete
	// KindFailure is a simulated MPI process failure (At = time of
	// failure).
	KindFailure
	// KindDetect is a failure detection: a pending operation completed
	// in error after the communication timeout (Peer = failed rank,
	// Aux = the peer's time of failure in nanoseconds).
	KindDetect
	// KindAbort is a simulated MPI abort (Aux = exit code).
	KindAbort
)

// String names the kind as used in exports.
func (k Kind) String() string {
	switch k {
	case KindUser:
		return "user"
	case KindSend:
		return "send"
	case KindRecvPost:
		return "recv-post"
	case KindComplete:
		return "complete"
	case KindFailure:
		return "failure"
	case KindDetect:
		return "detect"
	case KindAbort:
		return "abort"
	default:
		return "kind-" + strconv.Itoa(int(k))
	}
}

// Flags qualify an event without widening it.
type Flags uint8

const (
	// FlagRendezvous marks a rendezvous-protocol send (eager otherwise).
	FlagRendezvous Flags = 1 << iota
	// FlagError marks a completion in error.
	FlagError
	// FlagSendOp marks a send-side completion (receive otherwise).
	FlagSendOp
)

// Event is one recorded occurrence. All classification lives in small
// fixed fields so recording never formats strings; Detail is optional
// (user events, extra context) and exporters derive a detail string from
// the typed fields when it is empty.
type Event struct {
	// At is the virtual time.
	At vclock.Time
	// Seq is the shard-assigned arrival sequence number. Events of one
	// rank always land in the same shard, so per-rank order is exact.
	Seq uint64
	// Size is the payload size in bytes (sends/completions).
	Size int64
	// Aux carries kind-specific data: the failed peer's time of failure
	// in nanoseconds (KindDetect) or the exit code (KindAbort).
	Aux int64
	// Rank is the simulated process, or -1 for simulator-level events.
	Rank int32
	// Peer is the remote rank of the operation, or -1.
	Peer int32
	// Tag is the message tag (point-to-point events).
	Tag int32
	// Kind classifies the event.
	Kind Kind
	// Flags qualify it.
	Flags Flags
	// Detail is optional free-form text; exports quote it safely.
	Detail string
}

// shard is one independently locked ring buffer. Ranks map statically to
// shards, so under the parallel engine the partitions' record streams
// touch disjoint shards and never contend.
type shard struct {
	mu      sync.Mutex
	events  []Event // ring once len == max (max > 0)
	start   int     // index of the oldest event when the ring has wrapped
	max     int     // capacity bound; 0 = unbounded
	seq     uint64
	dropped uint64
	// Pad shards to two cache lines so neighbouring locks don't
	// false-share.
	_ [64]byte
}

// Buffer is a bounded, thread-safe event recorder. The zero value is not
// usable; construct with New.
type Buffer struct {
	shards []shard
	mask   uint32

	// Counter tracks (RecordCounter): sampled gauges exported as Chrome
	// trace counter events. Low volume, so one lock suffices.
	ctrMu    sync.Mutex
	counters []CounterSample
}

// CounterSample is one sample of a named counter track — a gauge value at
// a point in virtual time. Chrome-trace exports render each named counter
// as its own graphed track (phase "C").
type CounterSample struct {
	At    vclock.Time
	Name  string
	Value float64
}

// maxShards bounds the shard fan-out; 16 covers every worker count the
// engine runs at while keeping merge cost trivial. minShardCap keeps
// bounded shards from getting so small that a skewed rank distribution
// starves the retained window — small bounded buffers collapse to fewer
// shards (contention only matters at trace volumes where max is large).
const (
	maxShards   = 16
	minShardCap = 64
)

// New returns a buffer holding at most max events in total; the most
// recent events are retained (each shard is a ring) and overwritten ones
// are counted as dropped. max <= 0 means unbounded.
func New(max int) *Buffer {
	n := maxShards
	if max > 0 && max < n*minShardCap {
		// Keep every shard's ring at least minShardCap deep (and the
		// total bound exact): fewer shards, never more than max slots.
		n = 1
		for n*2 <= max/minShardCap {
			n *= 2
		}
	}
	b := &Buffer{shards: make([]shard, n), mask: uint32(n - 1)}
	if max > 0 {
		per := max / n
		extra := max % n
		for i := range b.shards {
			b.shards[i].max = per
			if i < extra {
				b.shards[i].max++
			}
		}
	}
	return b
}

// shardFor maps a rank to its shard; rank -1 (simulator-level events) gets
// a stable shard of its own alias.
func (b *Buffer) shardFor(rank int32) *shard {
	return &b.shards[uint32(rank+1)&b.mask]
}

// Record stores one event. It takes only the owning shard's lock: events
// of different ranks recorded by different engine partitions do not
// serialise against each other. Once a bounded shard's ring is full,
// recording allocates nothing (Detail-free events overwrite in place).
func (b *Buffer) Record(ev Event) {
	s := b.shardFor(ev.Rank)
	s.mu.Lock()
	s.seq++
	ev.Seq = s.seq
	if s.max > 0 && len(s.events) == s.max {
		s.events[s.start] = ev
		s.start++
		if s.start == s.max {
			s.start = 0
		}
		s.dropped++
	} else {
		s.events = append(s.events, ev)
	}
	s.mu.Unlock()
}

// RecordCounter appends one sample to the named counter track. Counters
// are kept apart from the event shards: they are sampled gauges (VP
// lifecycle, pool occupancy), not per-operation events, and are never
// dropped by the ring bound.
func (b *Buffer) RecordCounter(name string, at vclock.Time, value float64) {
	b.ctrMu.Lock()
	b.counters = append(b.counters, CounterSample{At: at, Name: name, Value: value})
	b.ctrMu.Unlock()
}

// Counters returns a copy of the recorded counter samples in record order.
func (b *Buffer) Counters() []CounterSample {
	b.ctrMu.Lock()
	defer b.ctrMu.Unlock()
	return append([]CounterSample(nil), b.counters...)
}

// Len returns the number of retained events.
func (b *Buffer) Len() int {
	n := 0
	for i := range b.shards {
		s := &b.shards[i]
		s.mu.Lock()
		n += len(s.events)
		s.mu.Unlock()
	}
	return n
}

// Dropped returns the number of events overwritten due to the bound.
func (b *Buffer) Dropped() int {
	n := uint64(0)
	for i := range b.shards {
		s := &b.shards[i]
		s.mu.Lock()
		n += s.dropped
		s.mu.Unlock()
	}
	return int(n)
}

// Events returns the retained events merged across shards and ordered by
// (virtual time, rank, arrival sequence). It is the one read of the
// timeline: every exporter renders from it.
func (b *Buffer) Events() []Event {
	var out []Event
	for i := range b.shards {
		s := &b.shards[i]
		s.mu.Lock()
		out = append(out, s.events[s.start:]...)
		out = append(out, s.events[:s.start]...)
		s.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].At != out[j].At {
			return out[i].At < out[j].At
		}
		if out[i].Rank != out[j].Rank {
			return out[i].Rank < out[j].Rank
		}
		return out[i].Seq < out[j].Seq
	})
	return out
}
