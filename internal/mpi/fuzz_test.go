package mpi

import (
	"bytes"
	"encoding/binary"
	"slices"
	"testing"
)

// FuzzUnframe exercises the collective payload deframer with arbitrary
// bytes: it must never panic or over-allocate, and anything it accepts
// must survive a framePool/unframe round trip unchanged. The frames come
// from one pool and go back to it, so later inputs are framed into
// recycled buffers that still hold earlier bytes.
func FuzzUnframe(f *testing.F) {
	dp := new(dpPool)
	f.Add([]byte{})
	f.Add(framePool(dp, nil))
	f.Add(framePool(dp, [][]byte{nil}))
	f.Add(framePool(dp, [][]byte{[]byte("a"), {}, []byte("bcd")}))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})                   // hostile part count
	f.Add([]byte{2, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0, 0}) // hostile part length
	f.Add([]byte{1, 0, 0, 0})                               // count without part
	f.Fuzz(func(t *testing.T, data []byte) {
		parts, err := unframe(data)
		if err != nil {
			return
		}
		buf := framePool(dp, parts)
		defer dp.putBuf(buf)
		again, err := unframe(buf)
		if err != nil {
			t.Fatalf("re-framed buffer rejected: %v", err)
		}
		if len(again) != len(parts) {
			t.Fatalf("round trip changed part count: %d vs %d", len(again), len(parts))
		}
		for i := range parts {
			if !bytes.Equal(again[i], parts[i]) {
				t.Fatalf("round trip changed part %d: %q vs %q", i, again[i], parts[i])
			}
		}
	})
}

// FuzzDecodeF64s exercises the reduction payload decoder: it must accept
// exactly the buffers encodeF64sPool produces and reproduce them bitwise.
// Encodings go back to one pool, so later ones land in recycled buffers.
func FuzzDecodeF64s(f *testing.F) {
	dp := new(dpPool)
	f.Add([]byte{}, 0)
	f.Add(encodeF64sPool(dp, []float64{1.5, -2.25}), 2)
	f.Add(encodeF64sPool(dp, []float64{0}), 2) // length mismatch
	f.Add([]byte{1, 2, 3}, 1)
	f.Add([]byte{}, -1)
	f.Fuzz(func(t *testing.T, data []byte, n int) {
		vals, err := decodeF64s(data, n)
		if (err == nil) != (n >= 0 && n <= len(data)/8 && len(data) == 8*n) {
			t.Fatalf("decodeF64s(%d bytes, n=%d) err=%v", len(data), n, err)
		}
		if err != nil {
			return
		}
		buf := encodeF64sPool(dp, vals)
		defer dp.putBuf(buf)
		if !bytes.Equal(buf, data) {
			t.Fatalf("encode/decode round trip changed %d-float payload", n)
		}
	})
}

// FuzzDecodeRanks exercises the rank-list codec that Shrink's reports and
// decisions travel in. Any list of ranks in uint32 range survives an
// encodeRanks/decodeRanks round trip unchanged, and arbitrary bytes either
// decode, to a list that re-encodes to the same bytes, or are refused with
// an error; neither panics.
func FuzzDecodeRanks(f *testing.F) {
	f.Add([]byte{})
	f.Add(encodeRanks(nil))
	f.Add(encodeRanks([]int{0, 3, 1<<32 - 1}))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}) // hostile count
	f.Add([]byte{1, 0, 0, 0, 7})          // truncated rank
	f.Fuzz(func(t *testing.T, data []byte) {
		ranks := make([]int, len(data)/4)
		for i := range ranks {
			ranks[i] = int(binary.LittleEndian.Uint32(data[4*i:]))
		}
		if got, err := decodeRanks(encodeRanks(ranks)); err != nil || !slices.Equal(got, ranks) {
			t.Fatalf("round trip of %v gave %v, %v", ranks, got, err)
		}
		decoded, err := decodeRanks(data)
		if err != nil {
			return
		}
		if again := encodeRanks(decoded); !bytes.Equal(again, data) {
			t.Fatalf("decoded %v re-encodes to %x, want %x", decoded, again, data)
		}
	})
}

// sanity check used by the fuzz seeds above.
func TestFrameLayout(t *testing.T) {
	buf := framePool(new(dpPool), [][]byte{[]byte("xy")})
	if binary.LittleEndian.Uint32(buf) != 1 {
		t.Fatalf("frame header = %v", buf)
	}
}

// Regression: a framed buffer whose count field claims 2^32-1 parts used
// to size the output slice before reading a single part, driving a
// multi-gigabyte allocation from a 4-byte input.
func TestUnframeRejectsHostileCount(t *testing.T) {
	if _, err := unframe([]byte{0xff, 0xff, 0xff, 0xff}); err == nil {
		t.Fatal("hostile part count should be rejected")
	}
	if _, err := unframe([]byte{2, 0, 0, 0, 1, 0, 0, 0}); err == nil {
		t.Fatal("count beyond available prefixes should be rejected")
	}
}
