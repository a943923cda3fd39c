package trace

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"xsim/internal/stats"
	"xsim/internal/vclock"
)

// This file renders the recorded timeline for external tooling. All string
// formatting lives here, on the export path; the record path stores only
// typed fields.

// DetailString returns the event's human-readable detail: the explicit
// Detail if set, otherwise text derived from the typed fields.
func (e *Event) DetailString() string {
	if e.Detail != "" {
		return e.Detail
	}
	switch e.Kind {
	case KindSend:
		proto := "eager"
		if e.Flags&FlagRendezvous != 0 {
			proto = "rendezvous"
		}
		return fmt.Sprintf("dst=%d tag=%d size=%d %s", e.Peer, e.Tag, e.Size, proto)
	case KindRecvPost:
		return fmt.Sprintf("src=%d tag=%d", e.Peer, e.Tag)
	case KindComplete:
		op := "recv"
		if e.Flags&FlagSendOp != 0 {
			op = "send"
		}
		if e.Flags&FlagError != 0 {
			return fmt.Sprintf("%s peer=%d err", op, e.Peer)
		}
		return fmt.Sprintf("%s peer=%d", op, e.Peer)
	case KindDetect:
		return fmt.Sprintf("failed=%d failed_at=%v", e.Peer, vclock.Time(e.Aux))
	case KindAbort:
		return fmt.Sprintf("code=%d", e.Aux)
	default:
		return ""
	}
}

// WriteCSV renders the time-ordered events as CSV with a header row,
// quoting through encoding/csv so detail strings containing commas,
// quotes, or newlines round-trip through standard readers. If events were
// dropped, a trailing marker row (kind "dropped") records the count so a
// truncated timeline is never mistaken for a complete one.
func (b *Buffer) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"time_s", "rank", "kind", "peer", "tag", "size", "detail"}); err != nil {
		return err
	}
	evs := b.Events()
	row := make([]string, 7)
	for i := range evs {
		ev := &evs[i]
		row[0] = strconv.FormatFloat(ev.At.Seconds(), 'f', 9, 64)
		row[1] = strconv.Itoa(int(ev.Rank))
		row[2] = ev.Kind.String()
		row[3] = strconv.Itoa(int(ev.Peer))
		row[4] = strconv.Itoa(int(ev.Tag))
		row[5] = strconv.FormatInt(ev.Size, 10)
		row[6] = ev.DetailString()
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	if d := b.Dropped(); d > 0 {
		last := 0.0
		if len(evs) > 0 {
			last = evs[len(evs)-1].At.Seconds()
		}
		row[0] = strconv.FormatFloat(last, 'f', 9, 64)
		row[1] = "-1"
		row[2] = "dropped"
		row[3] = "-1"
		row[4] = "-1"
		row[5] = strconv.Itoa(d)
		row[6] = fmt.Sprintf("%d events dropped by the buffer bound; timeline is truncated", d)
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// chromeEvent is one entry of the Chrome trace-event format (the JSON
// object variant loadable by Perfetto and chrome://tracing).
type chromeEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"` // microseconds
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// WriteChromeTrace renders the timeline in the Chrome trace-event JSON
// format, one track (tid) per rank, each event as a thread-scoped instant.
// Load the file in Perfetto (ui.perfetto.dev) or chrome://tracing. A
// trailing process-scoped "dropped" instant marks truncated timelines.
func (b *Buffer) WriteChromeTrace(w io.Writer) error {
	evs := b.Events()
	if _, err := io.WriteString(w, `{"displayTimeUnit":"ms","traceEvents":[`); err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	first := true
	emit := func(ce chromeEvent) error {
		if !first {
			if _, err := io.WriteString(w, ","); err != nil {
				return err
			}
		}
		first = false
		// Encode writes a trailing newline, which keeps the array
		// readable without a second buffer.
		return enc.Encode(ce)
	}
	// Name the per-rank tracks once.
	seen := make(map[int32]bool)
	for i := range evs {
		r := evs[i].Rank
		if seen[r] {
			continue
		}
		seen[r] = true
		name := "rank " + strconv.Itoa(int(r))
		if r < 0 {
			name = "simulator"
		}
		if err := emit(chromeEvent{
			Name:  "thread_name",
			Phase: "M",
			PID:   0,
			TID:   int(r),
			Args:  map[string]any{"name": name},
		}); err != nil {
			return err
		}
	}
	for i := range evs {
		ev := &evs[i]
		ce := chromeEvent{
			Name:  ev.Kind.String(),
			Phase: "i",
			TS:    float64(ev.At) / 1e3, // ns → µs
			PID:   0,
			TID:   int(ev.Rank),
			Scope: "t",
			Args:  map[string]any{"detail": ev.DetailString()},
		}
		if ev.Peer >= 0 {
			ce.Args["peer"] = ev.Peer
		}
		if ev.Size > 0 {
			ce.Args["size"] = ev.Size
		}
		if err := emit(ce); err != nil {
			return err
		}
	}
	// Counter tracks: one Chrome counter event ("C") per sample, stably
	// sorted by time so tracks graph monotonically in Perfetto.
	ctrs := b.Counters()
	sort.SliceStable(ctrs, func(i, j int) bool { return ctrs[i].At < ctrs[j].At })
	for _, c := range ctrs {
		if err := emit(chromeEvent{
			Name:  c.Name,
			Phase: "C",
			TS:    float64(c.At) / 1e3, // ns → µs
			PID:   0,
			Args:  map[string]any{"value": c.Value},
		}); err != nil {
			return err
		}
	}
	if d := b.Dropped(); d > 0 {
		last := 0.0
		if len(evs) > 0 {
			last = float64(evs[len(evs)-1].At) / 1e3
		}
		if err := emit(chromeEvent{
			Name:  "dropped",
			Phase: "i",
			TS:    last,
			PID:   0,
			TID:   -1,
			Scope: "p",
			Args:  map[string]any{"count": d, "detail": "timeline truncated by the buffer bound"},
		}); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "]}\n")
	return err
}

// RankSummary aggregates one rank's recorded events.
type RankSummary struct {
	Rank      int
	Events    int
	Sends     int
	RecvPosts int
	Completes int
	Errors    int
	Failures  int
	Detects   int
	Aborts    int
	First     vclock.Time
	Last      vclock.Time
}

// Summary holds the per-rank breakdown of the retained timeline plus the
// drop count, for the shutdown report.
type Summary struct {
	PerRank []RankSummary // ordered by rank
	Total   int
	Dropped int
}

// Summarize computes the per-rank summary of the retained events.
func (b *Buffer) Summarize() Summary {
	byRank := make(map[int32]*RankSummary)
	var order []int32
	evs := b.Events()
	for i := range evs {
		ev := &evs[i]
		rs := byRank[ev.Rank]
		if rs == nil {
			rs = &RankSummary{Rank: int(ev.Rank), First: ev.At}
			byRank[ev.Rank] = rs
			order = append(order, ev.Rank)
		}
		rs.Events++
		rs.Last = ev.At
		if ev.At < rs.First {
			rs.First = ev.At
		}
		switch ev.Kind {
		case KindSend:
			rs.Sends++
		case KindRecvPost:
			rs.RecvPosts++
		case KindComplete:
			rs.Completes++
			if ev.Flags&FlagError != 0 {
				rs.Errors++
			}
		case KindFailure:
			rs.Failures++
		case KindDetect:
			rs.Detects++
		case KindAbort:
			rs.Aborts++
		}
	}
	out := Summary{Total: len(evs), Dropped: b.Dropped()}
	for _, r := range order {
		out.PerRank = append(out.PerRank, *byRank[r])
	}
	sort.Slice(out.PerRank, func(i, j int) bool { return out.PerRank[i].Rank < out.PerRank[j].Rank })
	return out
}

// WriteSummary renders the per-rank summary as a fixed-width table in the
// style of the paper's shutdown statistics, followed by totals and, when
// events were dropped, an explicit truncation line.
func (b *Buffer) WriteSummary(w io.Writer) error {
	sum := b.Summarize()
	header := []string{"rank", "events", "sends", "recv-posts", "completes", "errors", "failures", "detects", "aborts", "first", "last"}
	rows := make([][]string, 0, len(sum.PerRank))
	for _, r := range sum.PerRank {
		rows = append(rows, []string{
			strconv.Itoa(r.Rank),
			strconv.Itoa(r.Events),
			strconv.Itoa(r.Sends),
			strconv.Itoa(r.RecvPosts),
			strconv.Itoa(r.Completes),
			strconv.Itoa(r.Errors),
			strconv.Itoa(r.Failures),
			strconv.Itoa(r.Detects),
			strconv.Itoa(r.Aborts),
			r.First.String(),
			r.Last.String(),
		})
	}
	var sb strings.Builder
	sb.WriteString(stats.Table(header, rows))
	fmt.Fprintf(&sb, "%d events retained", sum.Total)
	if sum.Dropped > 0 {
		fmt.Fprintf(&sb, ", %d DROPPED (timeline truncated)", sum.Dropped)
	}
	sb.WriteByte('\n')
	_, err := io.WriteString(w, sb.String())
	return err
}
