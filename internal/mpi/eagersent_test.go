package mpi

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"unsafe"

	"xsim/internal/core"
	"xsim/internal/trace"
)

// requestBytes is r's memory as bytes, for byte-for-byte comparison.
func requestBytes(r *Request) []byte {
	return bytes.Clone(unsafe.Slice((*byte)(unsafe.Pointer(r)), unsafe.Sizeof(*r)))
}

// TestEagerSendSharesOneRequest checks the shared request an untraced
// eager send returns: Isend and IsendN below the eager threshold return
// eagerSent, a rendezvous send a pooled request of its own, and nothing
// the program or the library does with the shared one writes to it or
// puts it on a free list. Two partitions run the ranks, so under -race
// the partitions' concurrent reads of it are checked too.
func TestEagerSendSharesOneRequest(t *testing.T) {
	const n, tag = 4, 5
	small := pattern(64, 1) // testNet's eager threshold is 1 KiB
	initial := requestBytes(&eagerSent)
	_, w := newWorldT(t, n, 2, nil)
	if _, err := w.Run(func(e *Env) {
		defer e.Finalize()
		c := e.World()
		next, prev := (e.Rank()+1)%n, (e.Rank()+n-1)%n
		s1, _ := c.Isend(next, tag, small)
		s2, _ := c.IsendN(next, tag, 64)
		s3, _ := c.IsendN(next, tag, 4096)
		if s1 != &eagerSent || s2 != &eagerSent {
			t.Errorf("rank %d: eager Isend/IsendN returned %p/%p, want the shared %p", e.Rank(), s1, s2, &eagerSent)
		}
		if s3 == &eagerSent || s3.Done() {
			t.Errorf("rank %d: rendezvous IsendN returned the shared request or a completed one", e.Rank())
		}
		r1, _ := c.Irecv(prev, tag)
		r2, _ := c.Irecv(prev, tag)
		r3, _ := c.Irecv(prev, tag)
		if err := c.Waitall([]*Request{s1, r1, s2, r2, s1, s3, r3, s2}); err != nil {
			t.Errorf("rank %d: Waitall: %v", e.Rank(), err)
		}
		if m := r1.Msg(); m == nil || !bytes.Equal(m.Data, small) {
			t.Errorf("rank %d: eager Isend delivered %v", e.Rank(), m)
		}
		if m, err := c.Wait(s1); m != nil || err != nil {
			t.Errorf("rank %d: Wait on the shared request = %v, %v; want nil, nil", e.Rank(), m, err)
		}
		if s1.Msg() != nil || s1.TakeMsg() != nil || s1.Err() != nil || !s1.Done() {
			t.Errorf("rank %d: the shared request reads as not a completed, error-free send", e.Rank())
		}
		if c.Cancel(s1) {
			t.Errorf("rank %d: Cancel of the shared request reported true", e.Rank())
		}
		for _, r := range []*Request{s1, s2, s3, r1, r2, r3} {
			c.Free(r)
		}
		if err := c.Send(next, tag, small); err != nil {
			t.Error(err)
		}
		if err := c.SendN(next, tag, 64); err != nil {
			t.Error(err)
		}
		for range 2 {
			m, err := c.Recv(prev, tag)
			if err != nil {
				t.Error(err)
				continue
			}
			m.Release()
		}
		if err := c.Barrier(); err != nil {
			t.Error(err)
		}
		if got, err := c.Bcast(0, small); err != nil || !bytes.Equal(got, small) {
			t.Errorf("rank %d: Bcast = %v, %v", e.Rank(), got, err)
		}
		parts := make([][]byte, n)
		for i := range parts {
			parts[i] = small
		}
		if got, err := c.Alltoall(parts); err != nil || !bytes.Equal(got[prev], small) {
			t.Errorf("rank %d: Alltoall = %v, %v", e.Rank(), got, err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if got := requestBytes(&eagerSent); !bytes.Equal(got, initial) {
		t.Errorf("the shared request changed:\n got %x\nwant %x", got, initial)
	}
	for i, dp := range w.pools {
		for _, r := range dp.reqs.free {
			if r == &eagerSent {
				t.Errorf("partition %d's request free list holds the shared request", i)
			}
		}
	}
}

// TestTracedEagerSendHasItsOwnRequest: a traced world records each send's
// completion where a wait observes it, with the send's peer, size and
// time, so there an eager send keeps a pooled request of its own.
func TestTracedEagerSendHasItsOwnRequest(t *testing.T) {
	traced := func(_ *core.Config, c *WorldConfig) { c.Tracer = trace.New(1 << 10) }
	runWorld(t, 2, 1, func(e *Env) {
		c := e.World()
		peer := 1 - e.Rank()
		s, _ := c.IsendN(peer, 0, 64)
		if s == &eagerSent || !s.Done() {
			t.Errorf("rank %d: traced eager IsendN returned the shared request or an incomplete one", e.Rank())
		}
		r, _ := c.Irecv(peer, 0)
		if err := c.Waitall([]*Request{s, r}); err != nil {
			t.Error(err)
		}
		c.Free(s)
		c.Free(r)
	}, traced)
}

// TestCancelledRendezvousSendLeavesItsEnvelope pins a known defect
// (ROADMAP aim 3): Cancel of a rendezvous send completes the request and
// reports true, but never withdraws the ready-to-send envelope already on
// its way. The receiver matches the envelope, sends its clear-to-send,
// which the sender drops, and waits for data that never comes; the run
// ends in a false deadlock. MPI lets a send's cancel fail (and MPI-4.0
// deprecates cancelling sends), so a fix could report false once the
// envelope has left, or withdraw it; either flips this test.
func TestCancelledRendezvousSendLeavesItsEnvelope(t *testing.T) {
	_, err := runWorldErr(t, 2, 1, nil, func(e *Env) {
		c := e.World()
		if e.Rank() == 0 {
			r, _ := c.IsendN(1, 0, 1<<20)
			if !c.Cancel(r) {
				t.Error("Cancel of a pending rendezvous send reported false")
			}
			return
		}
		if m, err := c.Recv(0, 0); err == nil {
			m.Release()
		}
	})
	const want = "rank 1 blocked at 0.000000s: MPI wait: recv from 0 tag 0 (comm 0)"
	if !errors.Is(err, core.ErrDeadlock) || !strings.Contains(err.Error(), want) {
		t.Fatalf("err = %v, want ErrDeadlock with %q", err, want)
	}
}
