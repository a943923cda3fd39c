package xsim

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"xsim/internal/checkpoint"
	"xsim/internal/fsmodel"
)

// writeCkpts commits a real checkpoint of iter for each of ranks into the
// store, written through the checkpoint layer by those ranks of a world
// just large enough to hold them.
func writeCkpts(t *testing.T, store *Store, prefix string, iter int, ranks ...int) {
	t.Helper()
	writes := map[int]bool{}
	world := 0
	for _, r := range ranks {
		writes[r] = true
		world = max(world, r+1)
	}
	sim, err := New(Config{Ranks: world, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(func(env *Env) {
		defer env.Finalize()
		if !writes[env.Rank()] {
			return
		}
		fs, err := NewCheckpointFS(env)
		if err != nil {
			t.Error(err)
			return
		}
		if err := fs.WriteSized(prefix, CheckpointMeta{Iteration: iter, Rank: env.Rank()}, 64); err != nil {
			t.Error(err)
		}
	})
	if err != nil || !res.Success() {
		t.Fatalf("writing checkpoints: %v", err)
	}
}

// tearCkpt leaves the uncommitted checkpoint file of a rank that died
// mid-write.
func tearCkpt(t *testing.T, store *Store, prefix string, iter, rank int) {
	t.Helper()
	if _, err := store.Create(checkpoint.FileName(prefix, iter, rank)).Write([]byte{1}); err != nil {
		t.Fatal(err)
	}
}

func TestLatestReplicatedCheckpointCoverage(t *testing.T) {
	// 3 logical ranks × 2 replicas (world 0..5). A logical rank is covered
	// by either of its replicas' valid files; one uncovered logical rank
	// sinks the whole iteration.
	const n, degree = 3, 2
	store := NewStore()
	if got := latestReplicatedCheckpoint(store, "r", n, degree); got != 0 {
		t.Fatalf("empty store: got %d, want 0", got)
	}
	// Iteration 5: fully covered, logical 1 only by its replica (rank 4).
	writeCkpts(t, store, "r", 5, 0, 2, 4)
	tearCkpt(t, store, "r", 5, 1) // replica 0 of logical 1 died mid-write
	// Iteration 10: logical 2 has no valid file at all — not covered.
	writeCkpts(t, store, "r", 10, 0, 1, 3, 4)
	tearCkpt(t, store, "r", 10, 2)
	if got := latestReplicatedCheckpoint(store, "r", n, degree); got != 5 {
		t.Fatalf("got iteration %d, want 5 (iteration 10 leaves logical 2 uncovered)", got)
	}
	writeCkpts(t, store, "r", 10, 5) // replica of logical 2 completes
	if got := latestReplicatedCheckpoint(store, "r", n, degree); got != 10 {
		t.Fatalf("got iteration %d, want 10 after coverage completes", got)
	}
}

// Regression: replica coverage counted any committed file as a logical
// rank's checkpoint, so a well-framed iteration-3 checkpoint committed under
// iteration 5's name covered iteration 5 — which every other restart probe
// rejects — and a replicated restart resumed from iteration 5.
func TestReplicaCoverageRejectsMisnamedCheckpoint(t *testing.T) {
	const n, degree = 1, 2 // world ranks 0 and 1 replicate logical rank 0
	store := NewStore()
	writeCkpts(t, store, "r", 3, 0)
	data, _, ok := store.Open(fsmodel.Key{Set: "r", Iteration: 3, Rank: 0})
	if !ok {
		t.Fatal("rank 0 has no checkpoint of iteration 3")
	}
	w := store.Create(checkpoint.FileName("r", 5, 0))
	if _, err := w.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	if checkpoint.SetComplete(store, "r", 5, n, degree) {
		t.Error("the misnamed file covers iteration 5")
	}
	if got := latestReplicatedCheckpoint(store, "r", n, degree); got != 3 {
		t.Errorf("restart point %d, want 3", got)
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
	writeCkpts(t, store, "repl", 5, 0, 2, 4)
	tearCkpt(t, store, "repl", 5, 1)
	// Iteration 10: logical 2 (ranks 2 and 5) has no valid file.
	writeCkpts(t, store, "repl", 10, 0, 1, 3, 4)

	if checkpoint.SetComplete(store, "repl", 5, ranks, 1) {
		t.Fatal("every-rank criterion unexpectedly accepts the covered set")
	}
	if !checkpoint.SetComplete(store, "repl", 5, ranks/degree, degree) {
		t.Fatal("replica criterion rejects the covered set")
	}
	removed := checkpoint.CleanIncompleteReplicaSets(store, "repl", ranks/degree, degree)
	if len(removed) != 1 || removed[0] != 10 {
		t.Fatalf("removed %v, want [10]", removed)
	}
	if got := store.Iterations("repl"); len(got) != 1 || got[0] != 5 {
		t.Fatalf("surviving sets %v, want [5]", got)
	}
	if got := latestReplicatedCheckpoint(store, "repl", ranks/degree, degree); got != 5 {
		t.Fatalf("restart point %d, want 5", got)
	}
}

// End-to-end: one replica dies and is absorbed; later its buddy dies too,
// exhausting the logical rank and aborting the run. The campaign's cleanup
// keeps the replica-covered checkpoint (the first dead replica's file is
// missing from it), so the restart resumes there and finishes strictly
// sooner than the same campaign without checkpoints, which reruns from
// scratch.
func TestReplicatedFailoverThenRestart(t *testing.T) {
	const ranks, degree = 8, 2
	run := func(interval int) *CampaignResult {
		sc := CrossoverParams{Iterations: 10, ComputeSeconds: 1, HaloBytes: 256, CheckpointSeconds: 0.1}
		camp := Campaign{
			Base: Config{
				Ranks: ranks,
				Failures: Schedule{
					{Rank: 1, At: Time(2500 * Millisecond)}, // replica 0 of logical 1: absorbed
					{Rank: 5, At: Time(6500 * Millisecond)}, // replica 1 of logical 1: exhaustion
				},
			},
			Replicas:         degree,
			CheckpointPrefix: replPrefix,
			AppFor:           func(int) App { return stencilApp(sc, degree, interval) },
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
	resumed := run(2)
	scratch := run(0)
	if resumed.E2 >= scratch.E2 {
		t.Fatalf("checkpointed campaign E2 %v not sooner than from-scratch E2 %v",
			Duration(resumed.E2), Duration(scratch.E2))
	}
}

// stencilApp drives the replicated stencil's programs on closure VPs, the
// way setApp installs them outside program mode.
func stencilApp(sc CrossoverParams, degree, interval int) App {
	var camp Campaign
	setApp(&camp, newReplicatedStencil(sc, degree, interval), false)
	return camp.AppFor(0)
}

// TestReplicatedStencilDriversAgree runs one replicated stencil through
// Sim.RunProgs on program VPs and through Env.RunProg on closure VPs, at
// Workers 1 and 2 and degrees 2 and 3, with no failure, with one replica
// of logical rank 1 failing (failover), and with every replica of it
// failing (abort). Every run must match the closure run at Workers 1 rank
// for rank: final clock, death, busy and waited time. The abort schedule
// also runs as a replicated campaign, which restarts from the
// replica-covered checkpoint; the two modes must agree on its runs, its
// E2 and every rank's busy and waited time.
func TestReplicatedStencilDriversAgree(t *testing.T) {
	const logical = 4
	for _, degree := range []int{2, 3} {
		ranks := logical * degree
		sc := CrossoverParams{Iterations: 10, ComputeSeconds: 1, HaloBytes: 256, CheckpointSeconds: 0.1, RestartSeconds: 0.3}
		// Replica k of logical rank 1 is world rank 1 + k·logical; the
		// replicas die 2 s apart, starting inside the third iteration.
		exhaust := Schedule{}
		for k := range degree {
			exhaust = append(exhaust, Injection{Rank: 1 + k*logical, At: Time(2500*Millisecond + Duration(k)*2*Second)})
		}
		schedules := []struct {
			name     string
			failures Schedule
		}{
			{"none", nil},
			{"failover", exhaust[:1]},
			{"exhaustion", exhaust},
		}
		for _, sched := range schedules {
			t.Run(fmt.Sprintf("r=%d/%s", degree, sched.name), func(t *testing.T) {
				var ref *Result
				for _, prog := range []bool{false, true} {
					for _, workers := range []int{1, 2} {
						var camp Campaign
						setApp(&camp, newReplicatedStencil(sc, degree, 2), prog)
						sim, err := New(Config{Ranks: ranks, Workers: workers, Failures: sched.failures})
						if err != nil {
							t.Fatal(err)
						}
						var res *Result
						if prog {
							res, err = sim.RunProgs(camp.ProgFor(0))
						} else {
							res, err = sim.Run(camp.AppFor(0))
						}
						if err != nil {
							t.Fatal(err)
						}
						if ref == nil {
							ref = res
							continue
						}
						for r := range ranks {
							if res.PerRank[r] != ref.PerRank[r] || res.Deaths[r] != ref.Deaths[r] ||
								res.Busy[r] != ref.Busy[r] || res.Waited[r] != ref.Waited[r] {
								t.Errorf("prog=%v workers=%d rank %d: clock %v death %s busy %v waited %v, want %v %s %v %v",
									prog, workers, r, res.PerRank[r], res.Deaths[r], res.Busy[r], res.Waited[r],
									ref.PerRank[r], ref.Deaths[r], ref.Busy[r], ref.Waited[r])
							}
						}
					}
				}
				wantAborted := sched.name == "exhaustion"
				if (ref.Aborted > 0) != wantAborted || ref.Failed != len(sched.failures) {
					t.Fatalf("failed=%d aborted=%d, want %d failed and aborted=%v (deaths: %v)",
						ref.Failed, ref.Aborted, len(sched.failures), wantAborted, ref.Deaths)
				}
				if !wantAborted {
					return
				}
				var want *CampaignResult
				for _, prog := range []bool{false, true} {
					for _, workers := range []int{1, 2} {
						camp := Campaign{
							Base:             Config{Ranks: ranks, Workers: workers, Failures: sched.failures},
							Replicas:         degree,
							CheckpointPrefix: replPrefix,
						}
						setApp(&camp, newReplicatedStencil(sc, degree, 2), prog)
						res, err := camp.Run()
						if err != nil {
							t.Fatal(err)
						}
						if !res.Done || len(res.Runs) != 2 {
							t.Fatalf("prog=%v workers=%d: campaign %+v, want done in 2 runs", prog, workers, res)
						}
						if want == nil {
							want = res
							continue
						}
						if !reflect.DeepEqual(res.Runs, want.Runs) || res.E2 != want.E2 || res.Failures != want.Failures ||
							!reflect.DeepEqual(res.Busy, want.Busy) || !reflect.DeepEqual(res.Waited, want.Waited) {
							t.Errorf("prog=%v workers=%d: campaign runs %+v E2 %v F %d busy %v waited %v, want %+v %v %d %v %v",
								prog, workers, res.Runs, res.E2, res.Failures, res.Busy, res.Waited,
								want.Runs, want.E2, want.Failures, want.Busy, want.Waited)
						}
					}
				}
			})
		}
	}
}

// replicated returns the run-completion test of a campaign at the given
// replication degree.
func replicated(ranks, degree int) func(*Result) bool {
	c := Campaign{Base: Config{Ranks: ranks}, Replicas: degree}
	return c.done
}

func TestReplicatedStencilFailoverRun(t *testing.T) {
	// A single run with one injected failure per replica sphere: every
	// logical rank keeps a live replica, so the run completes without a
	// restart and the replicated campaign accepts it while Result.Success
	// does not.
	const ranks, degree = 8, 2
	sc := CrossoverParams{Iterations: 10, ComputeSeconds: 1, HaloBytes: 256}
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
	res, err := sim.Run(stencilApp(sc, degree, 0))
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
	if !replicated(ranks, degree)(res) {
		t.Fatal("a replicated campaign should accept failed-but-covered replicas")
	}
}

func TestReplicatedStencilExhaustionAborts(t *testing.T) {
	// Both replicas of logical 1 die: the survivors must notice the
	// exhausted replica group and abort rather than hang, and the
	// replicated campaign must demand a restart.
	const ranks, degree = 8, 2
	sc := CrossoverParams{Iterations: 10, ComputeSeconds: 1, HaloBytes: 256}
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
	res, err := sim.Run(stencilApp(sc, degree, 0))
	if err != nil {
		t.Fatal(err)
	}
	if res.Aborted == 0 {
		t.Fatalf("expected survivors to abort on replica exhaustion (deaths: %v)", res.Deaths)
	}
	if replicated(ranks, degree)(res) {
		t.Fatal("a replicated campaign should reject an exhausted replica group")
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
	out, text, err := runBlock(context.Background(), rs, &p)
	if err != nil {
		t.Fatal(err)
	}
	table := out.Crossover
	// 1 MTTF × (checkpoint + 2 degrees × {replication, hybrid}) = 5 cells.
	if len(table.Rows) != 5 {
		t.Fatalf("got %d rows, want 5:\n%s", len(table.Rows), text)
	}
	if table.SolveNS <= 0 {
		t.Fatalf("non-positive solve %v ns", table.SolveNS)
	}
	for _, row := range table.Rows {
		if row.E2NS <= 0 || row.Runs < 1 {
			t.Fatalf("degenerate cell %+v:\n%s", row, text)
		}
		if row.Arm == ArmReplication && row.Interval != 0 {
			t.Fatalf("replication arm with checkpoint interval %d", row.Interval)
		}
		if row.Arm != ArmReplication && row.Interval < 1 {
			t.Fatalf("arm %s without checkpoint interval", row.Arm)
		}
	}
	t.Logf("\n%s", text)
}

func TestReplicationCrossoverValidatesDegrees(t *testing.T) {
	rs, p := smokeCrossover()
	spec := &CampaignSpec{Kind: KindCrossover, Ranks: rs.Ranks, Seed: rs.Seed, Crossover: &p}
	p.Degrees = []int{5} // 12 % 5 != 0
	if _, err := spec.RunWith(context.Background(), RunOptions{}); !IsSpecError(err) {
		t.Fatalf("err = %v, want the block's divisibility violation", err)
	}
	p.Degrees = []int{1}
	if _, err := spec.RunWith(context.Background(), RunOptions{}); !IsSpecError(err) {
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
	out, text, err := runBlock(context.Background(), RunSpec{Ranks: 24, Seed: 11},
		&CrossoverParams{Degrees: []int{2}, MTTFSeconds: []float64{50, 1600}})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", text)

	row := func(mttfSeconds float64, arm string, degree int) *WireCrossoverRow {
		for i := range out.Crossover.Rows {
			if r := &out.Crossover.Rows[i]; r.MTTFSeconds == mttfSeconds && r.Arm == arm && r.Degree == degree {
				return r
			}
		}
		t.Fatalf("missing frontier cell: MTTF %v s, %s, r=%d", mttfSeconds, arm, degree)
		return nil
	}
	ckptLow, replLow := row(50, ArmCheckpoint, 1), row(50, ArmReplication, 2)
	ckptHigh, replHigh := row(1600, ArmCheckpoint, 1), row(1600, ArmReplication, 2)
	if replLow.E2NS >= ckptLow.E2NS {
		t.Errorf("MTTF=50s: replication E2 %v ns should beat checkpoint E2 %v ns",
			replLow.E2NS, ckptLow.E2NS)
	}
	if ckptHigh.E2NS >= replHigh.E2NS {
		t.Errorf("MTTF=1600s: checkpoint E2 %v ns should beat replication E2 %v ns",
			ckptHigh.E2NS, replHigh.E2NS)
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
