package xsim

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// traceGolden pins the three timeline exports of one small traced run
// byte for byte: merge order, derived detail text, the drop markers of a
// bounded buffer and the counter tracks. A change meant to alter them
// rewrites the golden from the exports of tracedRun.
const traceGolden = "testdata/trace/heat8.golden"

// tracedRun runs the 8-rank heat proxy into a 192-event buffer with rank 3
// failing at 40 s. Rank 2 detects the failure and aborts the run, and the
// run records more events than the buffer holds, so the exports carry the
// drop markers next to the failure, detection and abort events.
func tracedRun(t *testing.T) *TraceBuffer {
	t.Helper()
	hc, err := HeatWorkloadFor(8)
	if err != nil {
		t.Fatal(err)
	}
	hc.Iterations = 40
	hc.ExchangeInterval = 10
	hc.CheckpointInterval = 20
	sched, err := ParseSchedule("3@40")
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTrace(192)
	sim, err := New(Config{Ranks: 8, Failures: sched, Trace: tr, CallOverhead: PaperCallOverhead})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(RunHeat(hc))
	if err != nil {
		t.Fatal(err)
	}
	if res.Aborted == 0 {
		t.Fatalf("run did not abort: %+v", res)
	}
	return tr
}

// traceExports renders the buffer through every exporter, each under a
// header line.
func traceExports(t *testing.T, tr *TraceBuffer) []byte {
	t.Helper()
	var out bytes.Buffer
	for _, x := range []struct {
		name  string
		write func(*bytes.Buffer) error
	}{
		{"csv", func(b *bytes.Buffer) error { return tr.WriteCSV(b) }},
		{"chrome", func(b *bytes.Buffer) error { return tr.WriteChromeTrace(b) }},
		{"summary", func(b *bytes.Buffer) error { return tr.WriteSummary(b) }},
	} {
		out.WriteString("== " + x.name + "\n")
		if err := x.write(&out); err != nil {
			t.Fatalf("%s: %v", x.name, err)
		}
	}
	return out.Bytes()
}

func TestTraceExportsMatchGolden(t *testing.T) {
	tr := tracedRun(t)
	if tr.Dropped() == 0 {
		t.Fatal("the bounded buffer dropped nothing; the golden would not pin the drop markers")
	}
	got := traceExports(t, tr)
	want, err := os.ReadFile(traceGolden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("trace exports diverge from %s at line %d:\n got: %s\nwant: %s", traceGolden, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("trace exports diverge from %s: %d lines, want %d", traceGolden, len(gl), len(wl))
	}
}
