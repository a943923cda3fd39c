package checkpoint

import (
	"errors"
	"testing"

	"xsim/internal/core"
	"xsim/internal/fsmodel"
	"xsim/internal/mpi"
	"xsim/internal/netmodel"
	"xsim/internal/procmodel"
	"xsim/internal/topology"
	"xsim/internal/vclock"
)

// withEnv runs body inside a 1-rank simulated world with a one-tier PFS
// of the given cost model.
func withEnv(t *testing.T, store *fsmodel.Store, model fsmodel.Model, failAt vclock.Time, body func(*mpi.Env)) *core.Result {
	t.Helper()
	return withWorld(t, mpi.WorldConfig{FSStore: store, FSHierarchy: fsmodel.Hierarchy{{Model: model}}}, failAt, body)
}

// withWorld runs body inside a 1-rank simulated world with cfg's file
// system, failing the rank at failAt when it is positive.
func withWorld(t testing.TB, cfg mpi.WorldConfig, failAt vclock.Time, body func(*mpi.Env)) *core.Result {
	t.Helper()
	eng, err := core.New(core.Config{NumVPs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if failAt > 0 {
		if err := eng.ScheduleFailure(0, failAt); err != nil {
			t.Fatal(err)
		}
	}
	net := &netmodel.Model{
		Topo:   topology.NewFullyConnected(1),
		System: netmodel.LinkParams{Latency: vclock.Microsecond, Bandwidth: 1e9, DetectionTimeout: vclock.Second},
		OnNode: netmodel.LinkParams{Latency: vclock.Microsecond, Bandwidth: 1e9, DetectionTimeout: vclock.Second},
	}
	cfg.Net, cfg.Proc = net, procmodel.Paper()
	w, err := mpi.NewWorld(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := w.Run(func(e *mpi.Env) {
		body(e)
		if !e.Finalized() {
			e.Finalize()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestWriteReadRoundTrip(t *testing.T) {
	store := fsmodel.NewStore()
	payload := []byte("grid state at iteration 500")
	withEnv(t, store, fsmodel.Model{}, 0, func(e *mpi.Env) {
		fs, err := NewFS(e)
		if err != nil {
			t.Fatal(err)
		}
		if err := fs.Write("heat", Meta{Iteration: 500, Rank: 0}, payload); err != nil {
			t.Fatal(err)
		}
		meta, got, err := fs.Read("heat", 500, 0)
		if err != nil {
			t.Fatal(err)
		}
		if meta.Iteration != 500 || meta.Rank != 0 || string(got) != string(payload) {
			t.Fatalf("read back %+v %q", meta, got)
		}
	})
}

func TestWriteChargesTime(t *testing.T) {
	store := fsmodel.NewStore()
	model := fsmodel.PaperPFS()[0].Model
	payload := make([]byte, 1e6)
	withEnv(t, store, model, 0, func(e *mpi.Env) {
		fs, _ := NewFS(e)
		before := e.Now()
		if err := fs.Write("heat", Meta{Iteration: 1, Rank: 0}, payload); err != nil {
			t.Fatal(err)
		}
		want := 2*model.MetadataCost() + model.WriteCost(headerLen+len(payload))
		if got := e.Now().Sub(before); got != want {
			t.Fatalf("write charged %v, want %v", got, want)
		}
	})
}

func TestFailureDuringWriteCorruptsCheckpoint(t *testing.T) {
	store := fsmodel.NewStore()
	model := fsmodel.PaperPFS()[0].Model // 1 MB takes ~1 ms: fail in the middle
	payload := make([]byte, 1e6)
	// Timeline: 1 ms metadata (file not yet created), then create, then
	// ~1 ms payload write. Failing at 1.5 ms lands mid-write, after the
	// file exists but before it commits.
	res := withEnv(t, store, model, vclock.Time(1500*vclock.Microsecond), func(e *mpi.Env) {
		fs, _ := NewFS(e)
		if err := fs.Write("heat", Meta{Iteration: 2, Rank: 0}, payload); err != nil {
			t.Fatal(err)
		}
		t.Error("write should have been interrupted by the failure")
	})
	if res.Failed != 1 {
		t.Fatalf("result = %+v", res)
	}
	// The file exists (created before the failure) but is incomplete:
	// the paper's corrupted checkpoint.
	_, complete, ok := store.Open(key("heat", 2, 0))
	if !ok {
		t.Fatal("corrupted checkpoint should exist")
	}
	if complete {
		t.Fatal("corrupted checkpoint should be incomplete")
	}
	// A later reader rejects it.
	withEnv(t, store, model, 0, func(e *mpi.Env) {
		fs, _ := NewFS(e)
		if _, _, err := fs.Read("heat", 2, 0); !errors.Is(err, ErrCorrupted) {
			t.Errorf("read err = %v, want ErrCorrupted", err)
		}
	})
}

func TestReadMissing(t *testing.T) {
	store := fsmodel.NewStore()
	withEnv(t, store, fsmodel.Model{}, 0, func(e *mpi.Env) {
		fs, _ := NewFS(e)
		if _, _, err := fs.Read("heat", 9, 0); !errors.Is(err, fsmodel.ErrNotExist) {
			t.Errorf("err = %v, want ErrNotExist", err)
		}
	})
}

// latestValid probes rank's checkpoints of iters (ascending) newest first,
// as a restart does, and returns the first restorable iteration.
func latestValid(fs *FS, prefix string, rank int, iters []int) (int, bool) {
	for i := len(iters) - 1; i >= 0; i-- {
		if fs.ProbeValid(prefix, rank, iters[i]) {
			return iters[i], true
		}
	}
	return 0, false
}

// exists reports whether the file at k is in store.
func exists(store *fsmodel.Store, k fsmodel.Key) bool {
	_, _, ok := store.Open(k)
	return ok
}

func TestLatestValidSkipsCorrupted(t *testing.T) {
	store := fsmodel.NewStore()
	withEnv(t, store, fsmodel.Model{}, 0, func(e *mpi.Env) {
		fs, _ := NewFS(e)
		if err := fs.Write("heat", Meta{Iteration: 100, Rank: 0}, []byte("old")); err != nil {
			t.Fatal(err)
		}
		if err := fs.Write("heat", Meta{Iteration: 200, Rank: 0}, []byte("new")); err != nil {
			t.Fatal(err)
		}
	})
	// Corrupt the newer checkpoint: create-without-commit.
	store.Create(FileName("heat", 300, 0)).Write([]byte("partial"))
	withEnv(t, store, fsmodel.Model{}, 0, func(e *mpi.Env) {
		fs, _ := NewFS(e)
		it, ok := latestValid(&fs, "heat", 0, store.Iterations("heat"))
		if !ok || it != 200 {
			t.Fatalf("latest valid = %d, %v; want 200, true", it, ok)
		}
	})
	// The corrupted file was deleted on the way.
	if exists(store, key("heat", 300, 0)) {
		t.Error("corrupted checkpoint should have been deleted")
	}
}

func TestLatestValidNone(t *testing.T) {
	store := fsmodel.NewStore()
	withEnv(t, store, fsmodel.Model{}, 0, func(e *mpi.Env) {
		fs, _ := NewFS(e)
		if _, ok := latestValid(&fs, "heat", 0, []int{100, 200}); ok {
			t.Error("empty store should have no valid checkpoint")
		}
	})
}

func TestIterationsAndSetComplete(t *testing.T) {
	store := fsmodel.NewStore()
	withEnv(t, store, fsmodel.Model{}, 0, func(e *mpi.Env) {
		fs, _ := NewFS(e)
		for _, it := range []int{125, 250} {
			for r := 0; r < 1; r++ {
				if err := fs.Write("heat", Meta{Iteration: it, Rank: r}, nil); err != nil {
					t.Fatal(err)
				}
			}
		}
	})
	got := store.Iterations("heat")
	if len(got) != 2 || got[0] != 125 || got[1] != 250 {
		t.Fatalf("Iterations = %v", got)
	}
	if !SetComplete(store, "heat", 125, 1, 1) {
		t.Error("set 125 should be complete")
	}
	if SetComplete(store, "heat", 125, 2, 1) {
		t.Error("set 125 should be incomplete for 2 ranks")
	}
}

func TestCleanIncompleteSets(t *testing.T) {
	store := fsmodel.NewStore()
	const n = 3
	withEnv(t, store, fsmodel.Model{}, 0, func(e *mpi.Env) {
		fs, _ := NewFS(e)
		// Set 100: complete for all 3 ranks (this env plays each rank's
		// writer role; rank identity is in the meta, not the env).
		for r := 0; r < n; r++ {
			if err := fs.Write("heat", Meta{Iteration: 100, Rank: r}, nil); err != nil {
				t.Fatal(err)
			}
		}
		// Set 200: missing rank 2 (failure during checkpointing).
		for r := 0; r < n-1; r++ {
			if err := fs.Write("heat", Meta{Iteration: 200, Rank: r}, nil); err != nil {
				t.Fatal(err)
			}
		}
	})
	removed := CleanIncompleteSets(store, "heat", n)
	if len(removed) != 1 || removed[0] != 200 {
		t.Fatalf("removed = %v", removed)
	}
	if got := store.Iterations("heat"); len(got) != 1 || got[0] != 100 {
		t.Fatalf("surviving iterations = %v", got)
	}
}

func TestDeleteSet(t *testing.T) {
	store := fsmodel.NewStore()
	withEnv(t, store, fsmodel.Model{}, 0, func(e *mpi.Env) {
		fs, _ := NewFS(e)
		fs.Write("heat", Meta{Iteration: 1, Rank: 0}, nil)
		fs.Write("heat", Meta{Iteration: 2, Rank: 0}, nil)
	})
	store.DeleteSet("heat", 1)
	if got := store.Iterations("heat"); len(got) != 1 || got[0] != 2 {
		t.Fatalf("iterations after delete = %v", got)
	}
}

func TestWriteSizedSynthetic(t *testing.T) {
	store := fsmodel.NewStore()
	model := fsmodel.PaperPFS()[0].Model
	withEnv(t, store, model, 0, func(e *mpi.Env) {
		fs, _ := NewFS(e)
		before := e.Now()
		if err := fs.WriteSized("heat", Meta{Iteration: 5, Rank: 0}, 1e6); err != nil {
			t.Fatal(err)
		}
		// Full write cost charged despite no payload bytes stored.
		want := 2*model.MetadataCost() + model.WriteCost(headerLen+1e6)
		if got := e.Now().Sub(before); got != want {
			t.Fatalf("synthetic write charged %v, want %v", got, want)
		}
		meta, payload, err := fs.Read("heat", 5, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !meta.Synthetic || meta.PayloadSize != 1e6 || payload != nil {
			t.Fatalf("meta = %+v payload = %d bytes", meta, len(payload))
		}
	})
	// Tiny on disk.
	if data, _, _ := store.Open(key("heat", 5, 0)); len(data) > 100 {
		t.Fatal("synthetic checkpoint materialised its payload")
	}
}

func TestIncrementalChain(t *testing.T) {
	store := fsmodel.NewStore()
	withEnv(t, store, fsmodel.Model{}, 0, func(e *mpi.Env) {
		fs, _ := NewFS(e)
		if err := fs.Write("heat", Meta{Iteration: 100, Rank: 0}, []byte("full state")); err != nil {
			t.Fatal(err)
		}
		if err := fs.Write("heat", Meta{Iteration: 110, Rank: 0, Incremental: true, BaseIteration: 100}, []byte("delta1")); err != nil {
			t.Fatal(err)
		}
		if err := fs.Write("heat", Meta{Iteration: 120, Rank: 0, Incremental: true, BaseIteration: 110}, []byte("delta2")); err != nil {
			t.Fatal(err)
		}
		if Chain(store, "heat", 0, 120) == nil {
			t.Fatal("intact chain should be valid")
		}
		// The newest restorable iteration is the tip of the chain.
		it, ok := latestValid(&fs, "heat", 0, []int{100, 110, 120})
		if !ok || it != 120 {
			t.Fatalf("latest = %d, %v", it, ok)
		}
		// Breaking a middle link invalidates everything above it.
		fs.Delete("heat", 110, 0)
		if Chain(store, "heat", 0, 120) != nil {
			t.Fatal("broken chain should be invalid")
		}
		it, ok = latestValid(&fs, "heat", 0, []int{100, 110, 120})
		if !ok || it != 100 {
			t.Fatalf("latest after break = %d, %v (want the full checkpoint)", it, ok)
		}
	})
}

func TestIncrementalSizedCost(t *testing.T) {
	store := fsmodel.NewStore()
	model := fsmodel.PaperPFS()[0].Model
	withEnv(t, store, model, 0, func(e *mpi.Env) {
		fs, _ := NewFS(e)
		if err := fs.WriteSized("heat", Meta{Iteration: 1, Rank: 0}, 1e6); err != nil {
			t.Fatal(err)
		}
		before := e.Now()
		// A 10% delta costs a tenth of the payload write time.
		if err := fs.WriteSized("heat", Meta{Iteration: 2, Rank: 0, Incremental: true, BaseIteration: 1}, 1e5); err != nil {
			t.Fatal(err)
		}
		got := e.Now().Sub(before)
		want := 2*model.MetadataCost() + model.WriteCost(headerLen+1e5)
		if got != want {
			t.Fatalf("delta charged %v, want %v", got, want)
		}
		meta, _, err := fs.Read("heat", 2, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !meta.Incremental || meta.BaseIteration != 1 {
			t.Fatalf("meta = %+v", meta)
		}
		if Chain(store, "heat", 0, 2) == nil {
			t.Fatal("synthetic chain should be valid")
		}
	})
}

func TestChainValidCycleGuard(t *testing.T) {
	store := fsmodel.NewStore()
	withEnv(t, store, fsmodel.Model{}, 0, func(e *mpi.Env) {
		fs, _ := NewFS(e)
		// A delta claiming a base at or above itself is corrupt.
		if err := fs.Write("heat", Meta{Iteration: 50, Rank: 0, Incremental: true, BaseIteration: 50}, []byte("x")); err != nil {
			t.Fatal(err)
		}
		if Chain(store, "heat", 0, 50) != nil {
			t.Fatal("self-referential chain should be invalid")
		}
	})
}

func TestExitTimePersistence(t *testing.T) {
	store := fsmodel.NewStore()
	if _, ok := LoadExitTime(store); ok {
		t.Fatal("fresh store should have no exit time")
	}
	want := vclock.TimeFromSeconds(7957)
	if err := SaveExitTime(store, want); err != nil {
		t.Fatal(err)
	}
	got, ok := LoadExitTime(store)
	if !ok || got != want {
		t.Fatalf("LoadExitTime = %v, %v", got, ok)
	}
	// Overwrite with a later exit.
	if err := SaveExitTime(store, want.Add(vclock.Second)); err != nil {
		t.Fatal(err)
	}
	if got, _ := LoadExitTime(store); got != want.Add(vclock.Second) {
		t.Fatalf("updated exit time = %v", got)
	}
	ClearExitTime(store)
	if _, ok := LoadExitTime(store); ok {
		t.Fatal("cleared store should have no exit time")
	}
}

func TestNewFSWithoutStore(t *testing.T) {
	withWorld(t, mpi.WorldConfig{}, 0, func(e *mpi.Env) {
		if _, err := NewFS(e); err == nil {
			t.Error("NewFS without a store should fail")
		}
	})
}

// misname commits the bytes of the file at src as the file at dst: a
// well-framed checkpoint whose header disagrees with its file name.
func misname(t *testing.T, store *fsmodel.Store, src, dst fsmodel.Key) {
	t.Helper()
	data, _, ok := store.Open(src)
	if !ok {
		t.Fatalf("%s is missing", src)
	}
	w := store.CreateKey(dst, 0, -1, 0)
	if _, err := w.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestMisnamedCheckpointIsNotRestorable: what Read rejects, the restart
// probes must reject too. Iteration 20's bytes under iteration 40's name
// are not a checkpoint of iteration 40, as a full checkpoint or as the base
// a delta builds on.
func TestMisnamedCheckpointIsNotRestorable(t *testing.T) {
	store := fsmodel.NewStore()
	withEnv(t, store, fsmodel.Model{}, 0, func(e *mpi.Env) {
		fs, err := NewFS(e)
		if err != nil {
			t.Fatal(err)
		}
		if err := fs.Write("heat", Meta{Iteration: 20, Rank: 0}, []byte("state at 20")); err != nil {
			t.Fatal(err)
		}
		misname(t, store, key("heat", 20, 0), key("heat", 40, 0))
		if _, _, err := fs.Read("heat", 40, 0); !errors.Is(err, ErrCorrupted) {
			t.Fatalf("Read of the impostor: %v, want ErrCorrupted", err)
		}
		if SetComplete(store, "heat", 40, 1, 1) {
			t.Error("SetComplete(40) accepts the impostor")
		}
		if err := fs.Write("heat", Meta{Iteration: 50, Rank: 0, Incremental: true, BaseIteration: 40}, []byte("delta")); err != nil {
			t.Fatal(err)
		}
		if Chain(store, "heat", 0, 50) != nil {
			t.Error("a delta on the impostor counts as a restorable chain")
		}
		if it, ok := latestValid(&fs, "heat", 0, store.Iterations("heat")); !ok || it != 20 {
			t.Errorf("latest valid = %d, %v, want 20", it, ok)
		}
		if exists(store, key("heat", 40, 0)) {
			t.Error("the newest-first probe left the impostor in the store")
		}
	})
}
