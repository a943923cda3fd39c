package jobstore

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// stores builds one of each implementation for table-driven tests.
func stores(t *testing.T) map[string]Store {
	t.Helper()
	dir, err := NewDir(t.TempDir())
	if err != nil {
		t.Fatalf("NewDir: %v", err)
	}
	return map[string]Store{"mem": NewMem(), "dir": dir}
}

func TestStoreRoundTrip(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			key := "0123456789abcdef"
			if _, ok, err := s.Get(key); err != nil || ok {
				t.Fatalf("Get on empty store = ok=%v err=%v", ok, err)
			}
			want := []byte(`{"rows":[1,2,3]}`)
			if err := s.Put(key, want); err != nil {
				t.Fatalf("Put: %v", err)
			}
			got, ok, err := s.Get(key)
			if err != nil || !ok {
				t.Fatalf("Get = ok=%v err=%v", ok, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("Get = %q, want %q", got, want)
			}
			if n, err := s.Len(); err != nil || n != 1 {
				t.Fatalf("Len = %d, %v; want 1", n, err)
			}
		})
	}
}

func TestStorePutIsIdempotent(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			key := "feedc0de"
			want := []byte(`{"rows":[4,5]}`)
			// Content addressing means every Put of a key carries the same
			// bytes, so putting twice must leave exactly one entry holding
			// them.
			for i := 0; i < 2; i++ {
				if err := s.Put(key, want); err != nil {
					t.Fatalf("Put #%d: %v", i+1, err)
				}
			}
			got, ok, err := s.Get(key)
			if err != nil || !ok || !bytes.Equal(got, want) {
				t.Fatalf("after re-Put, Get = %q ok=%v err=%v, want %q", got, ok, err, want)
			}
			if n, _ := s.Len(); n != 1 {
				t.Fatalf("Len = %d, want 1", n)
			}
		})
	}
}

// TestDirTornEntryReadsAbsent pins that a directory entry a crash or a
// short write left behind — zero bytes, or a prefix of the value — is
// never served: Get reports it absent, and the next Put of the key
// replaces it with the whole value.
func TestDirTornEntryReadsAbsent(t *testing.T) {
	want := []byte(`{"kind":"table1","rows":[{"victim":3,"detected":true}]}`)
	for name, tear := range map[string]func(path string) error{
		"empty":     func(path string) error { return os.WriteFile(path, nil, 0o644) },
		"truncated": func(path string) error { return os.Truncate(path, int64(len(want)/2)) },
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := NewDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			key := "0badc0de"
			if err := s.Put(key, want); err != nil {
				t.Fatal(err)
			}
			if err := tear(filepath.Join(dir, key+".json")); err != nil {
				t.Fatal(err)
			}
			if got, ok, err := s.Get(key); err != nil || ok {
				t.Fatalf("Get of a torn entry = %q ok=%v err=%v, want absent", got, ok, err)
			}
			if err := s.Put(key, want); err != nil {
				t.Fatal(err)
			}
			got, ok, err := s.Get(key)
			if err != nil || !ok || !bytes.Equal(got, want) {
				t.Fatalf("Get after re-Put = %q ok=%v err=%v, want %q", got, ok, err, want)
			}
		})
	}
}

func TestStoreRejectsBadKeys(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			for _, key := range []string{"", "UPPER", "../escape", "has space", "zz.json"} {
				if err := s.Put(key, []byte("x")); err == nil {
					t.Errorf("Put(%q) accepted a non-hex key", key)
				}
			}
		})
	}
}

func TestDirSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	s1, err := NewDir(dir)
	if err != nil {
		t.Fatalf("NewDir: %v", err)
	}
	if err := s1.Put("abc123", []byte("persisted")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	s2, err := NewDir(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	got, ok, err := s2.Get("abc123")
	if err != nil || !ok || string(got) != "persisted" {
		t.Fatalf("after reopen Get = %q ok=%v err=%v", got, ok, err)
	}
}
