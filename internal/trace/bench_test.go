package trace

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"xsim/internal/vclock"
)

// legacyBuffer replicates the pre-sharding tracer — one global mutex, one
// string-formatted record per event — so the benchmarks document what the
// rewrite bought.
type legacyBuffer struct {
	mu     sync.Mutex
	events []legacyEvent
	max    int
}

type legacyEvent struct {
	Rank   int
	At     vclock.Time
	Kind   string
	Detail string
}

func newLegacy(max int) *legacyBuffer { return &legacyBuffer{max: max} }

func (b *legacyBuffer) Record(rank int, at vclock.Time, kind, detail string) {
	b.mu.Lock()
	if b.max > 0 && len(b.events) >= b.max {
		copy(b.events, b.events[1:])
		b.events = b.events[:len(b.events)-1]
	}
	b.events = append(b.events, legacyEvent{Rank: rank, At: at, Kind: kind, Detail: detail})
	b.mu.Unlock()
}

// BenchmarkRecord measures one goroutine recording typed events into a
// bounded buffer (the steady-state ring overwrite path).
func BenchmarkRecord(b *testing.B) {
	buf := New(1 << 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Record(Event{Rank: 0, At: vclock.Time(i), Kind: KindSend, Peer: 1, Tag: 7, Size: 64})
	}
}

// BenchmarkRecordLegacy is the old path: global mutex plus the
// fmt.Sprintf the call sites used to pay per event.
func BenchmarkRecordLegacy(b *testing.B) {
	buf := newLegacy(1 << 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Record(0, vclock.Time(i), "send", fmt.Sprintf("dst=%d tag=%d size=%d eager", 1, 7, 64))
	}
}

// BenchmarkRecordParallel4 drives 4 goroutines with distinct ranks — the
// shape of the Workers=4 engine — against the sharded buffer. Distinct
// ranks map to distinct shards, so throughput should scale near-linearly.
func BenchmarkRecordParallel4(b *testing.B) {
	benchParallelRecord(b, func(rank int32, i int64, buf *Buffer) {
		buf.Record(Event{Rank: rank, At: vclock.Time(i), Kind: KindSend, Peer: 1, Tag: 7, Size: 64})
	})
}

func benchParallelRecord(b *testing.B, rec func(rank int32, i int64, buf *Buffer)) {
	buf := New(1 << 16)
	var next atomic.Int32
	b.ReportAllocs()
	b.SetParallelism(1) // exactly GOMAXPROCS goroutines
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rank := next.Add(1) - 1
		var i int64
		for pb.Next() {
			rec(rank, i, buf)
			i++
		}
	})
}

// BenchmarkRecordLegacyParallel4 is the same workload against the global
// mutex: every record serialises, so adding goroutines buys nothing.
func BenchmarkRecordLegacyParallel4(b *testing.B) {
	buf := newLegacy(1 << 16)
	var next atomic.Int32
	b.ReportAllocs()
	b.SetParallelism(1)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rank := int(next.Add(1) - 1)
		var i int64
		for pb.Next() {
			buf.Record(rank, vclock.Time(i), "send", fmt.Sprintf("dst=%d tag=%d size=%d eager", 1, 7, 64))
			i++
		}
	})
}
