package checkpoint

import (
	"testing"

	"xsim/internal/core"
	"xsim/internal/fsmodel"
	"xsim/internal/mpi"
	"xsim/internal/netmodel"
	"xsim/internal/procmodel"
	"xsim/internal/topology"
	"xsim/internal/vclock"
)

// withTieredEnv runs body inside a 1-rank simulated world whose checkpoint
// storage is the given multi-tier hierarchy.
func withTieredEnv(t testing.TB, store *fsmodel.Store, h fsmodel.Hierarchy, body func(*mpi.Env)) {
	t.Helper()
	eng, err := core.New(core.Config{NumVPs: 1})
	if err != nil {
		t.Fatal(err)
	}
	net := &netmodel.Model{
		Topo:   topology.NewFullyConnected(1),
		System: netmodel.LinkParams{Latency: vclock.Microsecond, Bandwidth: 1e9, DetectionTimeout: vclock.Second},
		OnNode: netmodel.LinkParams{Latency: vclock.Microsecond, Bandwidth: 1e9, DetectionTimeout: vclock.Second},
	}
	w, err := mpi.NewWorld(eng, mpi.WorldConfig{
		Net: net, Proc: procmodel.Paper(), FSStore: store, FSHierarchy: h,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Run(func(e *mpi.Env) {
		body(e)
		if !e.Finalized() {
			e.Finalize()
		}
	}); err != nil {
		t.Fatal(err)
	}
}

// drainTimes returns the expected completion times of a size-byte file's
// drains down the hierarchy, given its commit time.
func drainTimes(h fsmodel.Hierarchy, commit vclock.Time, size int) []vclock.Time {
	at := commit
	var out []vclock.Time
	for q := 1; q < len(h); q++ {
		at = at.Add(h[q].MetadataCost() + h[q].WriteCostAmong(size, 1))
		out = append(out, at)
	}
	return out
}

func TestTieredWriteCommitsAtLocalTierCost(t *testing.T) {
	h := fsmodel.PaperTieredFS()
	store := fsmodel.NewStore()
	const payload = 1 << 20
	withTieredEnv(t, store, h, func(e *mpi.Env) {
		fs, err := NewFS(e)
		if err != nil {
			t.Fatal(err)
		}
		if !fs.Tiered() {
			t.Fatal("hierarchy-configured FS reports flat")
		}
		before := e.Now()
		if err := fs.WriteSized("heat", Meta{Iteration: 5, Rank: 0}, payload); err != nil {
			t.Fatal(err)
		}
		// The commit charges only the fast node-local tier; the deeper
		// tiers drain asynchronously, overlapping subsequent compute.
		node := h[0]
		want := 2*node.MetadataCost() + node.WriteCostAmong(headerLen+payload, 1)
		if got := e.Now().Sub(before); got != want {
			t.Fatalf("tiered write charged %v, want node-local %v", got, want)
		}
		name := FileName("heat", 5, 0)
		if got := store.TierOf(name); got != 0 {
			t.Fatalf("checkpoint originated at tier %d, want 0", got)
		}
		// Reading it back immediately uses the node-local copy.
		before = e.Now()
		meta, _, err := fs.Read("heat", 5, 0)
		if err != nil {
			t.Fatal(err)
		}
		want = node.MetadataCost() + node.ReadCostAmong(headerLen+payload, 1)
		if got := e.Now().Sub(before); got != want {
			t.Fatalf("tiered read charged %v, want node-local %v", got, want)
		}
		if !meta.Synthetic || meta.PayloadSize != payload {
			t.Fatalf("meta = %+v", meta)
		}
	})
}

func TestDrainInterruptedByFailureFallsBackATier(t *testing.T) {
	h := fsmodel.PaperTieredFS()
	store := fsmodel.NewStore()
	const payload = 1 << 20
	size := headerLen + payload
	var commit vclock.Time
	withTieredEnv(t, store, h, func(e *mpi.Env) {
		fs, _ := NewFS(e)
		if err := fs.WriteSized("heat", Meta{Iteration: 7, Rank: 0}, payload); err != nil {
			t.Fatal(err)
		}
		commit = e.Now()
	})

	drains := drainTimes(h, commit, size)
	bbAt, pfsAt := drains[0], drains[1]
	if !(commit < bbAt && bbAt < pfsAt) {
		t.Fatalf("drain times not ordered: commit=%v bb=%v pfs=%v", commit, bbAt, pfsAt)
	}
	// The owner fails after the burst-buffer drain completed but while the
	// PFS drain was still in flight: the node-local origin and the
	// in-flight PFS copy die with the node, the burst-buffer copy survives.
	store.ResolveFailure(h, 0, bbAt.Add(vclock.Microsecond))

	name := FileName("heat", 7, 0)
	if got := store.TierOf(name); got != -1 {
		t.Fatalf("lost origin still reports tier %d", got)
	}
	tier, at, ok := store.NearestCopy(name, pfsAt)
	if !ok || tier != 1 || at != bbAt {
		t.Fatalf("NearestCopy = tier %d at %v ok %v, want bb tier 1 at %v", tier, at, ok, bbAt)
	}

	// The restarted run (fresh clock) reads the checkpoint: the surviving
	// copy is the burst-buffer drain, which lands at bbAt in continuous
	// virtual time — the reader waits for it and is charged the
	// burst-buffer tier's read cost, not the node's and not the PFS's.
	withTieredEnv(t, store, h, func(e *mpi.Env) {
		fs, _ := NewFS(e)
		meta, _, err := fs.Read("heat", 7, 0)
		if err != nil {
			t.Fatalf("restart read: %v", err)
		}
		if meta.Iteration != 7 || meta.PayloadSize != payload {
			t.Fatalf("restart meta = %+v", meta)
		}
		bb := h[1]
		want := bbAt.Add(bb.MetadataCost() + bb.ReadCostAmong(size, 1))
		if got := e.Now(); got != want {
			t.Fatalf("restart read finished at %v, want wait-for-drain + bb read = %v", got, want)
		}
	})

	// A failure before any drain completes loses the checkpoint entirely.
	store2 := fsmodel.NewStore()
	withTieredEnv(t, store2, h, func(e *mpi.Env) {
		fs, _ := NewFS(e)
		if err := fs.WriteSized("heat", Meta{Iteration: 7, Rank: 0}, payload); err != nil {
			t.Fatal(err)
		}
		commit = e.Now()
	})
	store2.ResolveFailure(h, 0, commit)
	if store2.Exists(name) {
		t.Fatal("checkpoint with no completed drain survived its owner")
	}
}

func TestChainWalksBasePointers(t *testing.T) {
	store := fsmodel.NewStore()
	withEnv(t, store, fsmodel.Model{}, 0, func(e *mpi.Env) {
		fs, _ := NewFS(e)
		if err := fs.WriteSized("heat", Meta{Iteration: 100, Rank: 0}, 10); err != nil {
			t.Fatal(err)
		}
		if err := fs.WriteIncrementalSized("heat", Meta{Iteration: 110, Rank: 0}, 100, 1); err != nil {
			t.Fatal(err)
		}
		if err := fs.WriteIncrementalSized("heat", Meta{Iteration: 120, Rank: 0}, 110, 1); err != nil {
			t.Fatal(err)
		}
	})
	got := Chain(store, "heat", 0, 120)
	want := []int{100, 110, 120}
	if len(got) != len(want) {
		t.Fatalf("Chain = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Chain = %v, want %v", got, want)
		}
	}
	if got := Chain(store, "heat", 0, 100); len(got) != 1 || got[0] != 100 {
		t.Fatalf("full checkpoint chain = %v, want [100]", got)
	}
	store.Delete(FileName("heat", 110, 0))
	if got := Chain(store, "heat", 0, 120); got != nil {
		t.Fatalf("broken chain = %v, want nil", got)
	}
}
