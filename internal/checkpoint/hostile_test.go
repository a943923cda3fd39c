package checkpoint

import (
	"encoding/binary"
	"errors"
	"math"
	"testing"

	"xsim/internal/fsmodel"
	"xsim/internal/mpi"
)

// Regression: a synthetic checkpoint header with the payload-size top bit
// set decodes to a negative PayloadSize; before validation it reached
// ReadCost() as a negative size and charged a negative read time.
func TestDecodeRejectsNegativeHeaderFields(t *testing.T) {
	cases := map[string][]byte{
		"payload-size":   header(flagSynthetic, 10, 0, 1<<63, 0),
		"iteration":      header(0, 1<<63, 0, 0, 0),
		"rank":           header(0, 0, 1<<63, 0, 0),
		"base-iteration": header(flagSynthetic|flagIncremental, 10, 0, 0, 1<<63),
	}
	for name, data := range cases {
		if _, _, err := decode(data, true); !errors.Is(err, ErrCorrupted) {
			t.Errorf("%s: decode = %v, want ErrCorrupted", name, err)
		}
	}
}

// Regression: a synthetic header whose payload size is just short of the
// int range decoded fine, but headerLen+PayloadSize wrapped negative and a
// read of the file charged ReadCostAmong(<negative>) = 0: a corrupt file
// restored for free.
func TestDecodeRejectsOverflowingPayloadSize(t *testing.T) {
	huge := header(flagSynthetic, 10, 0, math.MaxInt-10, 0)
	if _, _, err := decode(huge, true); !errors.Is(err, ErrCorrupted) {
		t.Fatalf("decode = %v, want ErrCorrupted", err)
	}
	// The largest size whose file size still fits in an int decodes.
	if _, _, err := decode(header(flagSynthetic, 10, 0, math.MaxInt-headerLen, 0), true); err != nil {
		t.Fatalf("largest representable size rejected: %v", err)
	}
	store := fsmodel.NewStore()
	w := store.CreateKey(key("heat", 10, 0), 0, -1, 0)
	if _, err := w.Write(huge); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	withEnv(t, store, fsmodel.PaperPFS()[0].Model, 0, func(e *mpi.Env) {
		fs, _ := NewFS(e)
		if err := fs.ChargeRestore("heat", 0, 10); !errors.Is(err, ErrCorrupted) {
			t.Errorf("ChargeRestore = %v, want ErrCorrupted", err)
		}
	})
}

// Regression: decode accepted an incremental checkpoint whose base
// iteration was at or above its own iteration — a self- or
// forward-referential chain link that can never restore. Only the chain
// walk rejected it, so FS.Read would happily return a checkpoint that the
// restart machinery could not use.
func TestDecodeRejectsForwardBase(t *testing.T) {
	hostile := map[string][]byte{
		"base-equals-iteration": header(flagSynthetic|flagIncremental, 50, 0, 0, 50),
		"base-above-iteration":  header(flagSynthetic|flagIncremental, 50, 0, 0, 51),
	}
	for name, data := range hostile {
		if _, _, err := decode(data, true); !errors.Is(err, ErrCorrupted) {
			t.Errorf("%s: decode = %v, want ErrCorrupted", name, err)
		}
	}
	// A well-formed delta (base strictly below) still decodes.
	meta, _, err := decode(header(flagSynthetic|flagIncremental, 50, 0, 0, 49), true)
	if err != nil {
		t.Fatalf("valid delta rejected: %v", err)
	}
	if !meta.Incremental || meta.BaseIteration != 49 {
		t.Fatalf("valid delta decoded as %+v", meta)
	}
	// A non-incremental header ignores the base field entirely.
	if _, _, err := decode(header(flagSynthetic, 50, 0, 0, 0), true); err != nil {
		t.Fatalf("full checkpoint rejected: %v", err)
	}
}

// Regression: an exit-time file with the top bit set decoded to a
// negative start clock, which the engine rejects at the next restart;
// LoadExitTime must treat it as corrupt instead.
func TestLoadExitTimeRejectsNegativeTime(t *testing.T) {
	store := fsmodel.NewStore()
	w := store.CreateKey(exitTimeKey, 0, -1, 0)
	if _, err := w.Write(binary.LittleEndian.AppendUint64(nil, 1<<63)); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	if tm, ok := LoadExitTime(store); ok {
		t.Fatalf("LoadExitTime accepted negative time %d", tm)
	}
}
