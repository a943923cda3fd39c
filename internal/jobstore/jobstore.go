// Package jobstore provides the campaign service's content-addressed
// result store: canonical outcome bytes filed under the canonical spec
// hash. Because keys are content addresses of deterministic results, a
// key maps to exactly one value forever — stores need no versioning, no
// invalidation, and concurrent or repeated writers of the same key are
// harmless (they write the same bytes). Two implementations: an
// in-memory map for tests and ephemeral servers, and a directory store
// whose entries survive restarts.
package jobstore

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// Store is a content-addressed byte store. Keys are lowercase hex
// content hashes (the spec's CacheKey); values are immutable once
// written.
type Store interface {
	// Get returns the bytes stored under key, or ok=false when absent.
	Get(key string) (data []byte, ok bool, err error)
	// Put files data under key, replacing any entry already there
	// (content addressing makes a whole entry's replacement identical,
	// and a torn one's a repair).
	Put(key string, data []byte) error
	// Len reports the number of stored entries.
	Len() (int, error)
}

// Mem is an in-memory Store.
type Mem struct {
	mu sync.RWMutex
	m  map[string][]byte
}

// NewMem returns an empty in-memory store.
func NewMem() *Mem { return &Mem{m: make(map[string][]byte)} }

// Get implements Store.
func (s *Mem) Get(key string) ([]byte, bool, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	data, ok := s.m[key]
	return data, ok, nil
}

// Put implements Store.
func (s *Mem) Put(key string, data []byte) error {
	if err := checkKey(key); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[key] = append([]byte(nil), data...)
	return nil
}

// Len implements Store.
func (s *Mem) Len() (int, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.m), nil
}

// Dir is a directory-backed Store: one file per key, written as temp
// file + rename, so restarted servers resume with their cache warm. Each
// file is the value followed by a newline, and Get serves only entries
// that end in it: an entry that is empty or cut short — what a crash
// leaves of a file whose data never reached the disk — reads as absent,
// so its campaign runs again and its Put replaces it.
type Dir struct {
	dir string
}

// NewDir opens (creating if needed) a directory store rooted at dir.
func NewDir(dir string) (*Dir, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("jobstore: %w", err)
	}
	return &Dir{dir: dir}, nil
}

// path maps a key to its file. Keys are validated hex, so they are safe
// path components.
func (s *Dir) path(key string) string { return filepath.Join(s.dir, key+".json") }

// Get implements Store.
func (s *Dir) Get(key string) ([]byte, bool, error) {
	if err := checkKey(key); err != nil {
		return nil, false, err
	}
	data, err := os.ReadFile(s.path(key))
	if os.IsNotExist(err) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("jobstore: %w", err)
	}
	n := len(data) - 1
	if n < 0 || data[n] != '\n' {
		return nil, false, nil // torn entry
	}
	return data[:n], true, nil
}

// Put implements Store.
func (s *Dir) Put(key string, data []byte) error {
	if err := checkKey(key); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(s.dir, "put-*")
	if err != nil {
		return fmt.Errorf("jobstore: %w", err)
	}
	if _, err := tmp.Write(append(data[:len(data):len(data)], '\n')); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("jobstore: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("jobstore: %w", err)
	}
	if err := os.Rename(tmp.Name(), s.path(key)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("jobstore: %w", err)
	}
	return nil
}

// Len implements Store.
func (s *Dir) Len() (int, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return 0, fmt.Errorf("jobstore: %w", err)
	}
	n := 0
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".json") {
			n++
		}
	}
	return n, nil
}

// checkKey rejects keys that are not lowercase hex content hashes —
// anything else risks path traversal in the directory store and signals
// a caller bug everywhere.
func checkKey(key string) error {
	if key == "" {
		return fmt.Errorf("jobstore: empty key")
	}
	for _, c := range key {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return fmt.Errorf("jobstore: key %q is not a lowercase hex hash", key)
		}
	}
	return nil
}
