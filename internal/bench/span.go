package bench

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// Span is one timed interval recorded by the harness around a call into a
// layer. Times are offsets from the tracer's epoch. Parent is the ID of
// the span that caused this one (-1 for a root).
type Span struct {
	ID       int           `json:"id"`
	Parent   int           `json:"parent"`
	Name     string        `json:"name"`
	Workload string        `json:"workload"`
	Start    time.Duration `json:"start_ns"`
	End      time.Duration `json:"end_ns"`
}

// Tracer keeps spans in memory until the benchmark ends. A nil *Tracer is
// the tracing-off state: every method is a no-op costing one nil check,
// so the untraced pass runs the same code as the traced one.
type Tracer struct {
	workload string
	epoch    time.Time

	mu    sync.Mutex
	spans []Span
}

// newTracer starts a tracer whose spans carry the given workload id.
func newTracer(workload string) *Tracer {
	return &Tracer{workload: workload, epoch: time.Now()}
}

// Start opens a span and returns its ID (-1 when tracing is off).
func (t *Tracer) Start(name string, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Name: name, Workload: t.workload, Start: now, End: now})
	t.mu.Unlock()
	return id
}

// End closes the span opened by Start.
func (t *Tracer) End(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// Add records a span whose interval was measured elsewhere (a runner task
// reported through OnProgress): it ended just now and lasted d.
func (t *Tracer) Add(name string, parent int, d time.Duration) {
	if t == nil {
		return
	}
	end := time.Since(t.epoch)
	t.mu.Lock()
	t.spans = append(t.spans, Span{ID: len(t.spans), Parent: parent, Name: name, Workload: t.workload, Start: end - d, End: end})
	t.mu.Unlock()
}

// Spans returns a copy of everything recorded so far.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// selfTimes returns each span's self time, indexed like spans: its
// duration minus the part of its interval that its child spans cover.
// Children may overlap each other (two pool slots, two clients), so the
// covered part is the union of the child intervals clipped to the parent.
func selfTimes(spans []Span) []time.Duration {
	children := make(map[int][]Span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered, reach := time.Duration(0), s.Start
		for _, k := range kids {
			lo, hi := k.Start, k.End
			if lo < reach {
				lo = reach
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] = (s.End - s.Start) - covered
	}
	return self
}

// SpanSummary aggregates the spans of one name.
type SpanSummary struct {
	Name   string  `json:"name"`
	Count  int     `json:"count"`
	TotalS float64 `json:"total_s"`
	SelfS  float64 `json:"self_s"`
}

// summarizeSpans groups spans by name, ordered by self time descending.
func summarizeSpans(spans []Span) []SpanSummary {
	self := selfTimes(spans)
	byName := make(map[string]*SpanSummary)
	for i, s := range spans {
		sum := byName[s.Name]
		if sum == nil {
			sum = &SpanSummary{Name: s.Name}
			byName[s.Name] = sum
		}
		sum.Count++
		sum.TotalS += (s.End - s.Start).Seconds()
		sum.SelfS += self[i].Seconds()
	}
	out := make([]SpanSummary, 0, len(byName))
	for _, sum := range byName {
		out = append(out, *sum)
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].SelfS != out[b].SelfS {
			return out[a].SelfS > out[b].SelfS
		}
		return out[a].Name < out[b].Name
	})
	return out
}

// writeChromeTrace writes spans as Chrome trace-event JSON (complete "X"
// events, microsecond timestamps), loadable in Perfetto. Each workload
// gets its own process row; a span's parent travels in args.
func writeChromeTrace(w io.Writer, spans []Span) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	pids := make(map[string]int)
	events := make([]event, 0, len(spans))
	for _, s := range spans {
		pid, ok := pids[s.Workload]
		if !ok {
			pid = len(pids) + 1
			pids[s.Workload] = pid
		}
		events = append(events, event{
			Name: s.Name, Ph: "X",
			Ts:  float64(s.Start.Nanoseconds()) / 1e3,
			Dur: float64((s.End - s.Start).Nanoseconds()) / 1e3,
			Pid: pid, Tid: 1,
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "workload": s.Workload},
		})
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events})
}
