package fsmodel

import (
	"bytes"
	"testing"

	"xsim/internal/vclock"
)

func TestWriterChunkedRoundTrip(t *testing.T) {
	store := NewStore()
	w := store.Create("chunked")
	var want []byte
	for i := 0; i < 100; i++ {
		chunk := bytes.Repeat([]byte{byte(i)}, 37)
		if _, err := w.Write(chunk); err != nil {
			t.Fatal(err)
		}
		want = append(want, chunk...)
	}
	// The file is visible — and incomplete — while being written.
	data, complete, ok := store.Open(Named("chunked"))
	if !ok {
		t.Fatal("file missing while being written")
	}
	if complete {
		t.Fatal("file complete before Commit")
	}
	if !bytes.Equal(data, want) {
		t.Fatalf("mid-write contents diverged: %d bytes, want %d", len(data), len(want))
	}
	// Mutating the opened copy must not corrupt the store.
	if len(data) > 0 {
		data[0] ^= 0xFF
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	data, complete, ok = store.Open(Named("chunked"))
	if !ok {
		t.Fatal("committed file missing")
	}
	if !complete || !bytes.Equal(data, want) {
		t.Fatalf("committed contents diverged (complete=%v, %d bytes)", complete, len(data))
	}
}

// BenchmarkWriterAppend pins the chunked-append cost: each op writes 1 MiB
// in 4 KiB chunks. The old implementation re-copied the whole buffer into
// the store on every chunk (O(n²) bytes per file); the fix shares the
// writer's buffer with the store under the lock, making appends amortized
// O(1).
func BenchmarkWriterAppend(b *testing.B) {
	chunk := make([]byte, 4096)
	const chunks = 256 // 1 MiB per file
	b.SetBytes(int64(len(chunk) * chunks))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		store := NewStore()
		w := store.Create("bench")
		for c := 0; c < chunks; c++ {
			if _, err := w.Write(chunk); err != nil {
				b.Fatal(err)
			}
		}
		if err := w.Commit(); err != nil {
			b.Fatal(err)
		}
	}
}

func TestHierarchyValidate(t *testing.T) {
	if err := (Hierarchy{}).Validate(); err != nil {
		t.Fatalf("empty hierarchy: %v", err)
	}
	for _, h := range []Hierarchy{PaperTieredFS(), PaperPFS(), PaperPFSShared()} {
		if err := h.Validate(); err != nil {
			t.Fatalf("paper hierarchy %+v: %v", h, err)
		}
	}
	bad := Hierarchy{{Name: "node", Volatile: true}}
	if err := bad.Validate(); err == nil {
		t.Fatal("volatile last tier accepted")
	}
	bad = Hierarchy{{Name: "node", Capacity: -1}, {Name: "pfs"}}
	if err := bad.Validate(); err == nil {
		t.Fatal("negative capacity accepted")
	}
	bad = Hierarchy{{Name: "node", Model: Model{WriteBandwidth: -1}}, {Name: "pfs"}}
	if err := bad.Validate(); err == nil {
		t.Fatal("invalid tier model accepted")
	}
	// The last tier takes every spill (PlaceTier), so a capacity there
	// would be silently unbounded: one-tier and tiered stores alike.
	for _, bad := range []Hierarchy{
		{{Name: "pfs", Model: PaperPFS()[0].Model, Capacity: 1 << 30}},
		{{Name: "node", Capacity: 1 << 20}, {Name: "pfs", Capacity: 1 << 30}},
	} {
		if err := bad.Validate(); err == nil {
			t.Fatalf("capacity on the last tier accepted: %+v", bad)
		}
	}
}

func TestAggregateBandwidthContention(t *testing.T) {
	m := Model{WriteBandwidth: 1e9, AggregateWriteBandwidth: 4e9,
		ReadBandwidth: 2e9, AggregateReadBandwidth: 8e9}
	const n = 1 << 20
	// One client, or few enough that the aggregate share exceeds the
	// per-client bandwidth: the per-client rate governs.
	if got, want := m.WriteCostAmong(n, 1), m.WriteCost(n); got != want {
		t.Fatalf("1 client: %v, want %v", got, want)
	}
	if got, want := m.WriteCostAmong(n, 4), m.WriteCost(n); got != want {
		t.Fatalf("4 clients under aggregate: %v, want %v", got, want)
	}
	// Enough clients saturate the backplane: each gets aggregate/clients.
	if got, want := m.WriteCostAmong(n, 8), vclock.FromSeconds(float64(n)/5e8); got != want {
		t.Fatalf("8 clients: %v, want %v", got, want)
	}
	if got, want := m.ReadCostAmong(n, 16), vclock.FromSeconds(float64(n)/5e8); got != want {
		t.Fatalf("16 readers: %v, want %v", got, want)
	}
	// A zero model stays free at any client count.
	if got := (Model{}).WriteCostAmong(n, 1<<20); got != 0 {
		t.Fatalf("zero model charged %v", got)
	}
}

func TestPlaceTierSpillAndUsage(t *testing.T) {
	h := Hierarchy{
		{Name: "node", Capacity: 100, Volatile: true},
		{Name: "pfs"},
	}
	store := NewStore()
	if got := store.PlaceTier(h, 0, 60); got != 0 {
		t.Fatalf("first placement at tier %d, want 0", got)
	}
	w := store.CreateAt("a", 0, 0, 60)
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := store.Usage(0, 0); got != 60 {
		t.Fatalf("usage %d, want 60", got)
	}
	// The next 60 bytes would exceed the 100-byte node tier: spill to PFS.
	if got := store.PlaceTier(h, 0, 60); got != 1 {
		t.Fatalf("over-capacity placement at tier %d, want 1", got)
	}
	// Another rank's capacity is independent.
	if got := store.PlaceTier(h, 1, 60); got != 0 {
		t.Fatalf("other owner's placement at tier %d, want 0", got)
	}
	// Deleting the file releases the capacity.
	store.Delete(Named("a"))
	if got := store.Usage(0, 0); got != 0 {
		t.Fatalf("usage after delete %d, want 0", got)
	}
	if got := store.PlaceTier(h, 0, 60); got != 0 {
		t.Fatalf("post-delete placement at tier %d, want 0", got)
	}
	// Recreating a placed file under a new tier moves its charge.
	store.CreateAt("b", 0, 2, 40)
	store.CreateAt("b", 1, 2, 70)
	if got := store.Usage(0, 2); got != 0 {
		t.Fatalf("old tier still charged %d", got)
	}
	if got := store.Usage(1, 2); got != 70 {
		t.Fatalf("new tier charged %d, want 70", got)
	}
}

func TestNearestCopyAndResolveFailure(t *testing.T) {
	h := Hierarchy{
		{Name: "node", Volatile: true},
		{Name: "bb"},
		{Name: "pfs"},
	}
	store := NewStore()
	w := store.CreateAt("ckpt", 0, 3, 10)
	if _, err := w.Write([]byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	t100 := vclock.TimeFromSeconds(100)
	t200 := vclock.TimeFromSeconds(200)
	store.AddDrain("ckpt", 1, t100)
	store.AddDrain("ckpt", 2, t200)

	// Origin alive: the node copy is immediately available.
	if tier, at, ok := store.NearestCopy(Named("ckpt"), vclock.TimeFromSeconds(50)); !ok || tier != 0 || at != 0 {
		t.Fatalf("origin alive: tier=%d at=%v ok=%v", tier, at, ok)
	}

	// The owner fails at t=150: the bb drain (t=100) completed, the pfs
	// drain (t=200) was still in flight and is lost with its source.
	store.ResolveFailure(h, 3, vclock.TimeFromSeconds(150))
	if got := store.TierOf(Named("ckpt")); got != -1 {
		t.Fatalf("lost origin still reports tier %d", got)
	}
	if !exists(store, "ckpt") {
		t.Fatal("file with a completed drain was deleted")
	}
	if tier, at, ok := store.NearestCopy(Named("ckpt"), vclock.TimeFromSeconds(150)); !ok || tier != 1 || at != t100 {
		t.Fatalf("after failure: tier=%d at=%v ok=%v, want bb@100s", tier, at, ok)
	}
	// A reader whose clock is still before the drain completion sees the
	// future availability time.
	if tier, at, ok := store.NearestCopy(Named("ckpt"), vclock.TimeFromSeconds(10)); !ok || tier != 1 || at != t100 {
		t.Fatalf("pre-drain reader: tier=%d at=%v ok=%v", tier, at, ok)
	}
	// The pfs drain never lands, even long after its scheduled time.
	if tier, _, ok := store.NearestCopy(Named("ckpt"), vclock.TimeFromSeconds(1e6)); !ok || tier != 1 {
		t.Fatalf("lost pfs drain resurfaced: tier=%d ok=%v", tier, ok)
	}
	// The surviving copy's contents are still readable.
	data, complete, ok := store.Open(Named("ckpt"))
	if !ok || !complete || string(data) != "0123456789" {
		t.Fatalf("surviving copy: %q complete=%v present=%v", data, complete, ok)
	}
}

func TestResolveFailureWithoutDrainsDeletes(t *testing.T) {
	h := Hierarchy{{Name: "node", Volatile: true}, {Name: "pfs"}}
	store := NewStore()
	store.CreateAt("mine", 0, 1, 50)
	store.CreateAt("theirs", 0, 2, 50)
	store.CreateAt("durable", 1, 1, 50)
	// A drain that had not completed at the failure is lost too.
	store.AddDrain("mine", 1, vclock.TimeFromSeconds(100))
	store.ResolveFailure(h, 1, vclock.TimeFromSeconds(10))

	if exists(store, "mine") {
		t.Fatal("volatile copy with only in-flight drains survived its owner")
	}
	if got := store.Usage(0, 1); got != 0 {
		t.Fatalf("lost file still charged: %d", got)
	}
	if !exists(store, "theirs") {
		t.Fatal("another owner's file was resolved away")
	}
	if !exists(store, "durable") {
		t.Fatal("non-volatile file was resolved away")
	}
	if tier, _, ok := store.NearestCopy(Named("durable"), 0); !ok || tier != 1 {
		t.Fatalf("durable file: tier=%d ok=%v", tier, ok)
	}
}
