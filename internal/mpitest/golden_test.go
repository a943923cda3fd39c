package mpitest

import (
	"fmt"
	"os"
	"strings"
	"testing"
)

// goldenPath holds one "seed digest" line per seed, recorded at the last
// commit whose public blocking calls had bodies of their own (separate
// from the step machines). A change that is meant to alter simulated
// behaviour replaces the lines the failing test prints.
const (
	goldenPath  = "testdata/closure_outcomes.golden"
	goldenSeeds = 200
)

// outcomeDigest folds every field of an Outcome — the exact set Diff
// compares — into one order-sensitive hash.
func outcomeDigest(o *Outcome) uint64 {
	d := newDigest()
	d.time(o.SimTime)
	d.time(o.MinTime)
	d.time(o.AvgTime)
	d.num(o.Completed)
	d.num(o.Failed)
	d.num(o.Aborted)
	d.num(len(o.PerRank))
	for r := range o.PerRank {
		d.time(o.PerRank[r])
		d.str(o.Deaths[r])
		d.u64(uint64(o.Busy[r]))
		d.u64(uint64(o.Waited[r]))
		d.u64(o.Digests[r])
		d.str(o.Errs[r])
	}
	d.u64(o.EagerMsgs)
	d.u64(o.EagerBytes)
	d.u64(o.RdvMsgs)
	d.u64(o.RdvBytes)
	d.u64(o.CollectiveOps)
	d.num(o.UnexpectedMax)
	d.num(len(o.Failures))
	for _, f := range o.Failures {
		d.num(f.Rank)
		d.time(f.FailedAt)
		d.time(f.NotifiedAt)
		d.time(f.LastDetectAt)
		d.num(f.Detections)
	}
	return d.sum()
}

// TestClosureOutcomesMatchGolden pins the closure-mode public blocking API
// (Wait, Send, Recv, Probe, Sleep and the eight collectives, driven by the
// random generator) to outcomes recorded before those calls became loops
// over the step machines. The deleted closure bodies were the reference
// TestDifferentialClosureVsProg compared against; this file took over
// that role, so a change that shifts both modes together — to a step
// machine, or to the one script both modes walk — still fails here.
func TestClosureOutcomesMatchGolden(t *testing.T) {
	got := make([]string, goldenSeeds)
	for seed := range got {
		w := Generate(int64(seed))
		o, err := w.Run(1)
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		got[seed] = fmt.Sprintf("%d %016x", seed, outcomeDigest(o))
	}
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if len(want) != len(got) {
		t.Fatalf("%s has %d lines, want %d", goldenPath, len(want), len(got))
	}
	for seed := range got {
		if got[seed] != want[seed] {
			t.Errorf("%s: outcome digest %q, golden %q", Generate(int64(seed)), got[seed], want[seed])
		}
	}
}
