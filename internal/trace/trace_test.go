package trace

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"strings"
	"sync"
	"testing"

	"xsim/internal/vclock"
)

func TestRecordAndOrder(t *testing.T) {
	b := New(0)
	b.Record(Event{Rank: 1, At: vclock.TimeFromSeconds(2), Kind: KindSend})
	b.Record(Event{Rank: 0, At: vclock.TimeFromSeconds(1), Kind: KindRecvPost})
	b.Record(Event{Rank: 0, At: vclock.TimeFromSeconds(2), Kind: KindComplete})
	evs := b.Events()
	if len(evs) != 3 {
		t.Fatalf("len = %d", len(evs))
	}
	// Ordered by (time, rank, seq).
	if evs[0].Kind != KindRecvPost || evs[1].Rank != 0 || evs[2].Rank != 1 {
		t.Fatalf("order wrong: %+v", evs)
	}
}

func TestPerRankOrderStable(t *testing.T) {
	// Events of one rank at the same timestamp must export in record
	// order (per-rank streams land in one shard, so Seq is exact).
	b := New(0)
	for i := 0; i < 10; i++ {
		b.Record(Event{Rank: 3, At: 5, Kind: KindUser, Size: int64(i)})
	}
	evs := b.Events()
	for i, ev := range evs {
		if ev.Size != int64(i) {
			t.Fatalf("event %d out of order: %+v", i, evs)
		}
	}
}

func TestRingBound(t *testing.T) {
	b := New(2)
	for i := 0; i < 5; i++ {
		b.Record(Event{Rank: 0, At: vclock.Time(i), Kind: KindUser})
	}
	if b.Len() != 2 || b.Dropped() != 3 {
		t.Fatalf("len=%d dropped=%d", b.Len(), b.Dropped())
	}
	// A ring keeps the most recent events.
	evs := b.Events()
	if evs[0].At != 3 || evs[1].At != 4 {
		t.Fatalf("ring should retain the newest events: %+v", evs)
	}
}

// TestDropMarkerAtMaxOne is the satellite regression: with max=1 every
// export must still disclose the truncation.
func TestDropMarkerAtMaxOne(t *testing.T) {
	b := New(1)
	b.Record(Event{Rank: 0, At: 1, Kind: KindSend, Peer: 1})
	b.Record(Event{Rank: 0, At: 2, Kind: KindSend, Peer: 1})
	if b.Len() != 1 || b.Dropped() != 1 {
		t.Fatalf("len=%d dropped=%d", b.Len(), b.Dropped())
	}

	var buf bytes.Buffer
	if err := b.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(strings.NewReader(buf.String())).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	last := rows[len(rows)-1]
	if last[2] != "dropped" || last[5] != "1" {
		t.Fatalf("missing CSV drop marker: %v", rows)
	}

	buf.Reset()
	if err := b.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"dropped"`) {
		t.Fatalf("missing chrome drop marker: %s", buf.String())
	}

	buf.Reset()
	if err := b.WriteSummary(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "1 DROPPED") {
		t.Fatalf("summary must report dropped events: %s", buf.String())
	}
	if s := b.Summarize(); s.Dropped != 1 {
		t.Fatalf("Summarize().Dropped = %d", s.Dropped)
	}
}

// TestWriteCSVHostileDetails is the satellite golden test: detail strings
// containing commas, quotes, newlines, and non-ASCII must round-trip
// through a standard CSV reader (the old %q escaping produced \" and
// \uXXXX sequences standard readers misparse).
func TestWriteCSVHostileDetails(t *testing.T) {
	hostile := []string{
		`plain`,
		`comma, separated, values`,
		`a "quoted" detail`,
		"line\nbreak",
		`mixed "q", and
newline — ünïcødé`,
	}
	b := New(0)
	for i, d := range hostile {
		b.Record(Event{Rank: 2, At: vclock.Time(i + 1), Kind: KindUser, Detail: d})
	}
	var buf bytes.Buffer
	if err := b.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(strings.NewReader(buf.String())).ReadAll()
	if err != nil {
		t.Fatalf("standard CSV reader rejected our output: %v\n%s", err, buf.String())
	}
	if len(rows) != len(hostile)+1 {
		t.Fatalf("rows = %d, want %d", len(rows), len(hostile)+1)
	}
	if want := []string{"time_s", "rank", "kind", "peer", "tag", "size", "detail"}; strings.Join(rows[0], "|") != strings.Join(want, "|") {
		t.Fatalf("header = %v", rows[0])
	}
	for i, d := range hostile {
		if got := rows[i+1][6]; got != d {
			t.Errorf("detail %d did not round-trip: %q != %q", i, got, d)
		}
	}
}

func TestWriteCSVDerivedDetails(t *testing.T) {
	b := New(0)
	b.Record(Event{Rank: 3, At: vclock.TimeFromSeconds(1.5), Kind: KindSend, Peer: 4, Tag: 7, Size: 512, Flags: FlagRendezvous})
	var buf bytes.Buffer
	if err := b.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "time_s,rank,kind,peer,tag,size,detail\n") {
		t.Fatalf("missing header: %q", out)
	}
	if !strings.Contains(out, "1.500000000,3,send,4,7,512,dst=4 tag=7 size=512 rendezvous") {
		t.Fatalf("missing derived row: %q", out)
	}
}

// TestChromeTraceFormat validates the JSON export against the trace-event
// format: a traceEvents array whose entries carry name/ph/ts/pid/tid, one
// tid per rank, with thread-name metadata.
func TestChromeTraceFormat(t *testing.T) {
	b := New(0)
	b.Record(Event{Rank: 0, At: vclock.TimeFromSeconds(1), Kind: KindSend, Peer: 1, Size: 64})
	b.Record(Event{Rank: 1, At: vclock.TimeFromSeconds(2), Kind: KindRecvPost, Peer: 0})
	b.Record(Event{Rank: 1, At: vclock.TimeFromSeconds(3), Kind: KindComplete, Peer: 0, Detail: `hostile "detail"`})
	var buf bytes.Buffer
	if err := b.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name  string         `json:"name"`
			Phase string         `json:"ph"`
			TS    *float64       `json:"ts"`
			PID   *int           `json:"pid"`
			TID   *int           `json:"tid"`
			Args  map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	tids := make(map[int]bool)
	var meta, instants int
	for _, ev := range doc.TraceEvents {
		if ev.Name == "" || ev.Phase == "" || ev.PID == nil || ev.TID == nil {
			t.Fatalf("event missing required fields: %+v", ev)
		}
		switch ev.Phase {
		case "M":
			meta++
		case "i":
			instants++
			if ev.TS == nil {
				t.Fatalf("instant without ts: %+v", ev)
			}
			tids[*ev.TID] = true
		}
	}
	if instants != 3 || meta != 2 {
		t.Fatalf("instants=%d meta=%d", instants, meta)
	}
	if !tids[0] || !tids[1] {
		t.Fatalf("expected one track per rank, got tids %v", tids)
	}
}

func TestChromeTraceCounters(t *testing.T) {
	b := New(0)
	b.Record(Event{Rank: 0, At: vclock.TimeFromSeconds(1), Kind: KindSend, Peer: 1})
	b.RecordCounter("carriers-hi", vclock.TimeFromSeconds(2), 7)
	b.RecordCounter("ready-hi", vclock.TimeFromSeconds(1), 3)
	var buf bytes.Buffer
	if err := b.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name  string         `json:"name"`
			Phase string         `json:"ph"`
			TS    float64        `json:"ts"`
			Args  map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	var counters []string
	lastTS := -1.0
	for _, ev := range doc.TraceEvents {
		if ev.Phase != "C" {
			continue
		}
		counters = append(counters, ev.Name)
		if ev.TS < lastTS {
			t.Fatalf("counter samples out of time order: %+v", doc.TraceEvents)
		}
		lastTS = ev.TS
		if _, ok := ev.Args["value"].(float64); !ok {
			t.Fatalf("counter without numeric value: %+v", ev)
		}
	}
	if len(counters) != 2 || counters[0] != "ready-hi" || counters[1] != "carriers-hi" {
		t.Fatalf("counter tracks = %v", counters)
	}
	if got := b.Counters(); len(got) != 2 {
		t.Fatalf("Counters() = %v", got)
	}
}

func TestSummaryTable(t *testing.T) {
	b := New(0)
	b.Record(Event{Rank: 0, At: 1, Kind: KindSend, Peer: 1})
	b.Record(Event{Rank: 1, At: 2, Kind: KindRecvPost, Peer: 0})
	b.Record(Event{Rank: 1, At: 3, Kind: KindComplete, Peer: 0, Flags: FlagError})
	sum := b.Summarize()
	if len(sum.PerRank) != 2 || sum.PerRank[0].Rank != 0 || sum.PerRank[1].Errors != 1 {
		t.Fatalf("summary = %+v", sum)
	}
	var buf bytes.Buffer
	if err := b.WriteSummary(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "rank") || !strings.Contains(buf.String(), "3 events retained") {
		t.Fatalf("summary table: %s", buf.String())
	}
}

func TestConcurrentRecord(t *testing.T) {
	b := New(0)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				b.Record(Event{Rank: int32(g), At: vclock.Time(i), Kind: KindUser})
			}
		}(g)
	}
	wg.Wait()
	if b.Len() != 800 {
		t.Fatalf("len = %d", b.Len())
	}
}

func TestBoundSplitAcrossShards(t *testing.T) {
	// The total bound stays exact even when events spread over shards.
	const max = maxShards * minShardCap
	b := New(max)
	if len(b.shards) != maxShards {
		t.Fatalf("expected full shard fan-out, got %d", len(b.shards))
	}
	for r := 0; r < 32; r++ {
		for i := 0; i < 4*minShardCap; i++ {
			b.Record(Event{Rank: int32(r), At: vclock.Time(i), Kind: KindUser})
		}
	}
	if b.Len() > max {
		t.Fatalf("bound exceeded: len = %d", b.Len())
	}
	if total := b.Len() + b.Dropped(); total != 32*4*minShardCap {
		t.Fatalf("len+dropped = %d", total)
	}
}
