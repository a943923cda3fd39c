package fsmodel

import (
	"slices"
	"testing"
	"testing/quick"

	"xsim/internal/vclock"
)

func TestZeroModelIsFree(t *testing.T) {
	var m Model
	if m.MetadataCost() != 0 || m.WriteCost(1<<20) != 0 || m.ReadCost(1<<20) != 0 {
		t.Fatal("zero model must charge nothing")
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPaperPFSCosts(t *testing.T) {
	h := PaperPFS()
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(h) != 1 {
		t.Fatalf("PaperPFS has %d tiers, want one", len(h))
	}
	m := h[0]
	// 1 GB at 1 GB/s = 1 s.
	if got := m.WriteCost(1e9); got != vclock.Second {
		t.Fatalf("WriteCost = %v", got)
	}
	// 2 GB at 2 GB/s = 1 s.
	if got := m.ReadCost(2e9); got != vclock.Second {
		t.Fatalf("ReadCost = %v", got)
	}
	if got := m.MetadataCost(); got != vclock.Millisecond {
		t.Fatalf("MetadataCost = %v", got)
	}
}

func TestValidateErrors(t *testing.T) {
	for _, m := range []Model{
		{MetadataLatency: -1},
		{WriteBandwidth: -1},
		{ReadBandwidth: -1},
	} {
		if m.Validate() == nil {
			t.Errorf("Validate(%+v) should fail", m)
		}
	}
}

func TestCreateWriteCommitOpen(t *testing.T) {
	s := NewStore()
	w := s.Create("ckpt.0")
	if _, err := w.Write([]byte("hello ")); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write([]byte("world")); err != nil {
		t.Fatal(err)
	}
	// Before commit, the file exists but is incomplete (corrupted if a
	// failure strikes now).
	if _, complete, ok := s.Open(Named("ckpt.0")); !ok || complete {
		t.Fatal("pre-commit state wrong")
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	data, complete, ok := s.Open(Named("ckpt.0"))
	if !ok || !complete || string(data) != "hello world" {
		t.Fatalf("Open = %q, %v, %v", data, complete, ok)
	}
	if w.Len() != 11 || w.Name() != "ckpt.0" {
		t.Fatal("writer accessors wrong")
	}
}

func TestIncompleteFileVisible(t *testing.T) {
	s := NewStore()
	w := s.Create("ckpt.partial")
	if _, err := w.Write([]byte("partial data")); err != nil {
		t.Fatal(err)
	}
	// Never committed: simulates a process failure during checkpointing.
	data, complete, ok := s.Open(Named("ckpt.partial"))
	if !ok {
		t.Fatal("uncommitted file missing")
	}
	if complete {
		t.Fatal("uncommitted file must be incomplete")
	}
	if string(data) != "partial data" {
		t.Fatalf("partial contents = %q", data)
	}
}

func TestDoubleCommitAndWriteAfterCommit(t *testing.T) {
	s := NewStore()
	w := s.Create("f")
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(); err == nil {
		t.Error("double commit should fail")
	}
	if _, err := w.Write([]byte("x")); err == nil {
		t.Error("write after commit should fail")
	}
}

func TestCommitDeletedFile(t *testing.T) {
	s := NewStore()
	w := s.Create("f")
	s.Delete(Named("f"))
	if err := w.Commit(); err == nil {
		t.Error("commit of deleted file should fail")
	}
}

// TestStaleWriterCannotTouchRecreatedFile pins that a writer holds its own
// file: once the file is deleted and created again, the old writer's bytes
// and commit must not land in the new one.
func TestStaleWriterCannotTouchRecreatedFile(t *testing.T) {
	s := NewStore()
	w1 := s.Create("f")
	s.Delete(Named("f"))
	w2 := s.Create("f")
	if _, err := w1.Write([]byte("stale")); err != nil {
		t.Fatal(err)
	}
	if err := w1.Commit(); err == nil {
		t.Error("commit of a deleted file's writer succeeded")
	}
	data, complete, ok := s.Open(Named("f"))
	if !ok || complete || len(data) != 0 {
		t.Fatalf("re-created file = %q, complete %v, present %v; want empty and incomplete", data, complete, ok)
	}
	// A truncating Create replaces the file the same way.
	w3 := s.Create("f")
	if _, err := w2.Write([]byte("replaced")); err != nil {
		t.Fatal(err)
	}
	if err := w2.Commit(); err == nil {
		t.Error("commit of a replaced file's writer succeeded")
	}
	if err := w3.Commit(); err != nil {
		t.Fatal(err)
	}
	if data, complete, _ := s.Open(Named("f")); !complete || len(data) != 0 {
		t.Fatalf("file = %q, complete %v; want the empty committed replacement", data, complete)
	}
}

// exists reports whether the file named name is in s.
func exists(s *Store, name string) bool {
	_, _, ok := s.Open(Named(name))
	return ok
}

func TestOpenMissing(t *testing.T) {
	s := NewStore()
	if data, complete, ok := s.Open(Named("nope")); ok || complete || data != nil {
		t.Fatalf("Open of a missing file = %q, %v, %v", data, complete, ok)
	}
}

func TestDeleteIdempotent(t *testing.T) {
	s := NewStore()
	s.Create("f").Commit()
	s.Delete(Named("f"))
	s.Delete(Named("f")) // no-op
	if exists(s, "f") {
		t.Fatal("file should be gone")
	}
}

func TestListAndLen(t *testing.T) {
	s := NewStore()
	for _, n := range []string{"h.ckpt.500.r2", "h.ckpt.500.r0", "h.ckpt.250.r1", "other"} {
		w := s.Create(n)
		w.Commit()
	}
	// Keys orders by set, then iteration numerically, then rank.
	want := []Key{{"h", 250, 1}, {"h", 500, 0}, {"h", 500, 2}, {"other", -1, -1}}
	if got := s.Keys(); !slices.Equal(got, want) {
		t.Fatalf("Keys = %#v, want %#v", got, want)
	}
	if s.Len() != 4 {
		t.Fatalf("Len = %d", s.Len())
	}
	if data, _, ok := s.Open(Named("other")); !ok || len(data) != 0 {
		t.Fatal("Open of an empty file wrong")
	}
}

func TestCreateTruncates(t *testing.T) {
	s := NewStore()
	w := s.Create("f")
	w.Write([]byte("old contents"))
	w.Commit()
	w2 := s.Create("f")
	if data, complete, _ := s.Open(Named("f")); complete || len(data) != 0 {
		t.Fatal("re-created file must be empty and incomplete again")
	}
	w2.Write([]byte("new"))
	w2.Commit()
	data, _, _ := s.Open(Named("f"))
	if string(data) != "new" {
		t.Fatalf("contents = %q", data)
	}
}

func TestOpenReturnsCopy(t *testing.T) {
	s := NewStore()
	w := s.Create("f")
	w.Write([]byte("abc"))
	w.Commit()
	data, _, _ := s.Open(Named("f"))
	data[0] = 'X'
	again, _, _ := s.Open(Named("f"))
	if string(again) != "abc" {
		t.Fatal("Open must return a copy")
	}
}

func TestQuickCostsMonotone(t *testing.T) {
	m := PaperPFS()[0]
	f := func(a, b uint32) bool {
		x, y := int(a%1e9), int(b%1e9)
		if x > y {
			x, y = y, x
		}
		return m.WriteCost(x) <= m.WriteCost(y) && m.ReadCost(x) <= m.ReadCost(y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickStoreRoundTrip(t *testing.T) {
	s := NewStore()
	f := func(name string, contents []byte) bool {
		if name == "" {
			return true
		}
		w := s.Create(name)
		if _, err := w.Write(contents); err != nil {
			return false
		}
		if err := w.Commit(); err != nil {
			return false
		}
		data, complete, ok := s.Open(Named(name))
		return ok && complete && string(data) == string(contents)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
