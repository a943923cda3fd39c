package xsim

import (
	"context"
	"testing"

	"xsim/internal/checkpoint"
)

// writeCkpt puts a (complete or incomplete) checkpoint file for (iter,
// rank) into the store.
func writeCkpt(t *testing.T, store *Store, prefix string, iter, rank int, complete bool) {
	t.Helper()
	w := store.Create(checkpoint.FileName(prefix, iter, rank))
	if _, err := w.Write([]byte{1}); err != nil {
		t.Fatal(err)
	}
	if complete {
		if err := w.Commit(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestLatestReplicatedCheckpointCoverage(t *testing.T) {
	// 3 logical ranks × 2 replicas (world 0..5). A logical rank is covered
	// by either of its replicas' complete files; one uncovered logical
	// rank sinks the whole iteration.
	const n, degree = 3, 2
	store := NewStore()
	if got := latestReplicatedCheckpoint(store, "r", n, degree); got != 0 {
		t.Fatalf("empty store: got %d, want 0", got)
	}
	// Iteration 5: fully covered, logical 1 only by its replica (rank 4).
	for _, rank := range []int{0, 2, 4} {
		writeCkpt(t, store, "r", 5, rank, true)
	}
	writeCkpt(t, store, "r", 5, 1, false) // replica 0 of logical 1 died mid-write
	// Iteration 10: logical 2 has no complete file at all — not covered.
	for _, rank := range []int{0, 1, 3, 4} {
		writeCkpt(t, store, "r", 10, rank, true)
	}
	writeCkpt(t, store, "r", 10, 2, false)
	if got := latestReplicatedCheckpoint(store, "r", n, degree); got != 5 {
		t.Fatalf("got iteration %d, want 5 (iteration 10 leaves logical 2 uncovered)", got)
	}
	writeCkpt(t, store, "r", 10, 5, true) // replica of logical 2 completes
	if got := latestReplicatedCheckpoint(store, "r", n, degree); got != 10 {
		t.Fatalf("got iteration %d, want 10 after coverage completes", got)
	}
}

// Regression: between-run cleanup used the every-world-rank completeness
// criterion even for replicated campaigns, deleting exactly the sets a
// replicated restart resumes from — a set missing one dead replica's file
// is incomplete by world-rank count but perfectly restorable.
func TestReplicaAwareCleanupKeepsCoveredSets(t *testing.T) {
	const ranks, degree = 6, 2 // 3 logical ranks
	store := NewStore()
	// Iteration 5: every logical rank covered — logical 0 by rank 0,
	// logical 1 only by its replica (rank 4; rank 1 died mid-write),
	// logical 2 by rank 2. Ranks 3 and 5 never wrote at all.
	for _, rank := range []int{0, 2, 4} {
		writeCkpt(t, store, "repl", 5, rank, true)
	}
	writeCkpt(t, store, "repl", 5, 1, false)
	// Iteration 10: logical 2 (ranks 2 and 5) has no complete file.
	for _, rank := range []int{0, 1, 3, 4} {
		writeCkpt(t, store, "repl", 10, rank, true)
	}

	if checkpoint.SetComplete(store, "repl", 5, ranks) {
		t.Fatal("every-rank criterion unexpectedly accepts the covered set")
	}
	covered := ReplicatedSetComplete(ranks, degree)
	if !covered(store, "repl", 5) {
		t.Fatal("replica criterion rejects the covered set")
	}
	removed := checkpoint.CleanIncompleteSetsBy(store, "repl", func(it int) bool {
		return covered(store, "repl", it)
	})
	if len(removed) != 1 || removed[0] != 10 {
		t.Fatalf("removed %v, want [10]", removed)
	}
	if got := checkpoint.Iterations(store, "repl"); len(got) != 1 || got[0] != 5 {
		t.Fatalf("surviving sets %v, want [5]", got)
	}
	if got := latestReplicatedCheckpoint(store, "repl", ranks/degree, degree); got != 5 {
		t.Fatalf("restart point %d, want 5", got)
	}
}

// End-to-end: one replica dies and is absorbed; later its buddy dies too,
// exhausting the logical rank and aborting the run. With the replica-aware
// cleanup criterion the campaign restarts from the replica-covered
// checkpoint; the default every-rank criterion deletes it (the first dead
// replica's file is missing) and forces a from-scratch rerun.
func TestReplicatedFailoverThenRestart(t *testing.T) {
	const ranks, degree = 8, 2
	run := func(setComplete func(*Store, string, int) bool) *CampaignResult {
		sc := ReplicatedStencilConfig{
			Degree:              degree,
			Iterations:          10,
			ComputePerIteration: Seconds(1),
			HaloBytes:           256,
			CheckpointInterval:  2,
			CheckpointCost:      100 * Millisecond,
			Prefix:              "repl",
		}
		camp := Campaign{
			Base: Config{
				Ranks: ranks,
				Failures: Schedule{
					{Rank: 1, At: Time(2500 * Millisecond)}, // replica 0 of logical 1: absorbed
					{Rank: 5, At: Time(6500 * Millisecond)}, // replica 1 of logical 1: exhaustion
				},
			},
			CheckpointPrefix: sc.Prefix,
			SetCompleteFor:   setComplete,
			SuccessFor:       replicatedSuccess(ranks, degree),
			AppFor:           func(int) App { return RunReplicatedStencil(sc) },
		}
		res, err := camp.Run()
		if err != nil {
			t.Fatal(err)
		}
		if !res.Done || len(res.Runs) != 2 || res.Failures != 2 {
			t.Fatalf("result = %+v", res)
		}
		return res
	}
	aware := run(ReplicatedSetComplete(ranks, degree))
	def := run(nil)
	// Both campaigns face the same failures; only the restart point
	// differs, so the replica-aware campaign must finish strictly sooner.
	if aware.E2 >= def.E2 {
		t.Fatalf("replica-aware cleanup E2 %v not sooner than every-rank E2 %v",
			Duration(aware.E2), Duration(def.E2))
	}
}

func TestReplicatedStencilFailoverRun(t *testing.T) {
	// A single run with one injected failure per replica sphere: every
	// logical rank keeps a live replica, so the run completes without a
	// restart and replicatedSuccess accepts it while Result.Success does
	// not.
	const ranks, degree = 8, 2
	sc := ReplicatedStencilConfig{
		Degree:              degree,
		Iterations:          10,
		ComputePerIteration: Seconds(1),
		HaloBytes:           256,
	}
	sim, err := New(Config{
		Ranks: ranks,
		Failures: Schedule{
			{Rank: 1, At: Time(2500 * Millisecond)}, // replica 0 of logical 1
			{Rank: 6, At: Time(9500 * Millisecond)}, // replica 1 of logical 2
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(RunReplicatedStencil(sc))
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 2 || res.Aborted != 0 || res.Completed != ranks-2 {
		t.Fatalf("completed=%d failed=%d aborted=%d, want 6/2/0 (deaths: %v)",
			res.Completed, res.Failed, res.Aborted, res.Deaths)
	}
	if res.Success() {
		t.Fatal("Result.Success should reject a run with failed ranks")
	}
	if !replicatedSuccess(ranks, degree)(res) {
		t.Fatal("replicatedSuccess should accept failed-but-covered replicas")
	}
}

func TestReplicatedStencilExhaustionAborts(t *testing.T) {
	// Both replicas of logical 1 die: the survivors must notice the
	// exhausted replica group and abort rather than hang, and
	// replicatedSuccess must demand a restart.
	const ranks, degree = 8, 2
	sc := ReplicatedStencilConfig{
		Degree:              degree,
		Iterations:          10,
		ComputePerIteration: Seconds(1),
		HaloBytes:           256,
	}
	sim, err := New(Config{
		Ranks: ranks,
		Failures: Schedule{
			{Rank: 1, At: Time(2500 * Millisecond)},
			{Rank: 5, At: Time(4500 * Millisecond)},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(RunReplicatedStencil(sc))
	if err != nil {
		t.Fatal(err)
	}
	if res.Aborted == 0 {
		t.Fatalf("expected survivors to abort on replica exhaustion (deaths: %v)", res.Deaths)
	}
	if replicatedSuccess(ranks, degree)(res) {
		t.Fatal("replicatedSuccess should reject an exhausted replica group")
	}
}

// smokeCrossover is a tiny grid for the CI smoke test.
func smokeCrossover() (RunSpec, CrossoverParams) {
	return RunSpec{Ranks: 12, Seed: 7}, CrossoverParams{
		Degrees:           []int{2, 3},
		MTTFSeconds:       []float64{100},
		Iterations:        8,
		ComputeSeconds:    1,
		HaloBytes:         256,
		CheckpointSeconds: 2,
		RestartSeconds:    2,
	}
}

func TestReplicationCrossoverSmoke(t *testing.T) {
	rs, p := smokeCrossover()
	table, err := RunReplicationCrossoverContext(context.Background(), rs, p)
	if err != nil {
		t.Fatal(err)
	}
	// 1 MTTF × (checkpoint + 2 degrees × {replication, hybrid}) = 5 cells.
	if len(table.Rows) != 5 {
		t.Fatalf("got %d rows, want 5:\n%s", len(table.Rows), table.Render())
	}
	if table.Solve <= 0 {
		t.Fatalf("non-positive solve %v", table.Solve)
	}
	for _, row := range table.Rows {
		if row.E2 <= 0 || row.Runs < 1 {
			t.Fatalf("degenerate cell %+v:\n%s", row, table.Render())
		}
		if row.Arm == ArmReplication && row.Interval != 0 {
			t.Fatalf("replication arm with checkpoint interval %d", row.Interval)
		}
		if row.Arm != ArmReplication && row.Interval < 1 {
			t.Fatalf("arm %s without checkpoint interval", row.Arm)
		}
	}
	t.Logf("\n%s", table.Render())
}

func TestReplicationCrossoverValidatesDegrees(t *testing.T) {
	rs, p := smokeCrossover()
	p.Degrees = []int{5} // 12 % 5 != 0
	if _, err := RunReplicationCrossoverContext(context.Background(), rs, p); !IsSpecError(err) {
		t.Fatalf("err = %v, want the block's divisibility violation", err)
	}
	p.Degrees = []int{1}
	if _, err := RunReplicationCrossoverContext(context.Background(), rs, p); !IsSpecError(err) {
		t.Fatalf("err = %v, want the block's degree >= 2 violation", err)
	}
}

func TestReplicationCrossoverFrontier(t *testing.T) {
	if testing.Short() {
		t.Skip("frontier sweep is long")
	}
	// The study's acceptance bar, pinned at one seed: at a 50 s MTTF the
	// 2-way replication arm (≈ 2×solve plus occasional replica-exhaustion
	// restarts) beats Daly-optimal checkpoint/restart, and at 1600 s the
	// ordering flips — paying double resources for failover only pays
	// when failures are frequent.
	table, err := RunReplicationCrossoverContext(context.Background(), RunSpec{Ranks: 24, Seed: 11},
		CrossoverParams{Degrees: []int{2}, MTTFSeconds: []float64{50, 1600}})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", table.Render())

	low, high := 50*Second, 1600*Second
	ckptLow := table.Row(low, ArmCheckpoint, 1)
	replLow := table.Row(low, ArmReplication, 2)
	ckptHigh := table.Row(high, ArmCheckpoint, 1)
	replHigh := table.Row(high, ArmReplication, 2)
	if ckptLow == nil || replLow == nil || ckptHigh == nil || replHigh == nil {
		t.Fatal("missing frontier cells")
	}
	if replLow.E2 >= ckptLow.E2 {
		t.Errorf("MTTF=50s: replication E2 %v should beat checkpoint E2 %v",
			replLow.E2, ckptLow.E2)
	}
	if ckptHigh.E2 >= replHigh.E2 {
		t.Errorf("MTTF=1600s: checkpoint E2 %v should beat replication E2 %v",
			ckptHigh.E2, replHigh.E2)
	}
	// Failover proof: the low-MTTF replication cell experienced failures,
	// and fewer restarts than failures — some failures were absorbed by
	// surviving replicas instead of forcing a restart.
	if replLow.F == 0 {
		t.Error("MTTF=50s replication cell saw no failures — injection broken")
	}
	if replLow.Runs >= replLow.F+1 {
		t.Errorf("MTTF=50s replication: %d runs for %d failures — no failure was absorbed by failover",
			replLow.Runs, replLow.F)
	}
}
