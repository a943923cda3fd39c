package checkpoint

import (
	"encoding/binary"
	"math"
	"testing"

	"xsim/internal/fsmodel"
)

// header builds a checkpoint header for fuzz seeds.
func header(flags uint32, iteration, rank, payloadSize, base uint64) []byte {
	hdr := make([]byte, 0, headerLen)
	hdr = append(hdr, magic[:]...)
	hdr = binary.LittleEndian.AppendUint32(hdr, version)
	hdr = binary.LittleEndian.AppendUint32(hdr, flags)
	hdr = binary.LittleEndian.AppendUint64(hdr, iteration)
	hdr = binary.LittleEndian.AppendUint64(hdr, rank)
	hdr = binary.LittleEndian.AppendUint64(hdr, payloadSize)
	hdr = binary.LittleEndian.AppendUint64(hdr, base)
	return hdr
}

// FuzzDecode exercises the checkpoint file parser with arbitrary bytes:
// it must never panic, and anything it accepts must be self-consistent —
// non-negative header counters, a file size within int, and a payload
// matching the header's size.
func FuzzDecode(f *testing.F) {
	f.Add([]byte{}, true)
	f.Add(append(header(0, 3, 1, 2, 0), 0xAB, 0xCD), true)
	f.Add(append(header(0, 3, 1, 2, 0), 0xAB, 0xCD), false) // uncommitted
	f.Add(header(flagSynthetic, 10, 0, 4096, 0), true)
	f.Add(header(flagSynthetic, 10, 0, 1<<63, 0), true)          // negative PayloadSize
	f.Add(header(0, 1<<63, 0, 0, 0), true)                       // negative Iteration
	f.Add(append(header(0, 1, 1, 1<<40, 0), 1), true)            // payload size lie
	f.Add(header(flagSynthetic, 10, 0, math.MaxInt-10, 0), true) // file size overflows int
	f.Fuzz(func(t *testing.T, data []byte, complete bool) {
		meta, payload, err := decode(data, complete)
		if err != nil {
			return
		}
		if meta.Iteration < 0 || meta.Rank < 0 || meta.PayloadSize < 0 || meta.BaseIteration < 0 {
			t.Fatalf("decode accepted negative header fields: %+v", meta)
		}
		if headerLen+meta.PayloadSize < 0 {
			t.Fatalf("decode accepted a file size past int: %+v", meta)
		}
		if meta.Synthetic {
			if payload != nil {
				t.Fatalf("synthetic checkpoint decoded payload of %d bytes", len(payload))
			}
		} else if len(payload) != meta.PayloadSize {
			t.Fatalf("payload %d bytes but header says %d", len(payload), meta.PayloadSize)
		}
	})
}

// FuzzLoadExitTime exercises the persisted exit-time parser: whatever the
// file holds, it must never panic and never report a time the engine's
// start clock would reject.
func FuzzLoadExitTime(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3})
	f.Add(binary.LittleEndian.AppendUint64(nil, 12345))
	f.Add(binary.LittleEndian.AppendUint64(nil, 1<<63)) // negative time
	f.Add(binary.LittleEndian.AppendUint64(nil, ^uint64(0)))
	f.Fuzz(func(t *testing.T, data []byte) {
		store := fsmodel.NewStore()
		w := store.CreateKey(exitTimeKey, 0, -1, 0)
		if _, err := w.Write(data); err != nil {
			t.Fatal(err)
		}
		if err := w.Commit(); err != nil {
			t.Fatal(err)
		}
		if tm, ok := LoadExitTime(store); ok && tm < 0 {
			t.Fatalf("LoadExitTime accepted negative time %d", tm)
		}
	})
}
