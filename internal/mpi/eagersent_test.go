package mpi

import (
	"bytes"
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

// TestRendezvousSendOutlivesCancel: Cancel of a rendezvous send reports
// false, because its ready-to-send envelope left when the send was posted.
// The send stays pending, the sender waits for it, the receiver matches
// the envelope and gets the data, and the run ends cleanly instead of in
// a false deadlock.
func TestRendezvousSendOutlivesCancel(t *testing.T) {
	const size = 1 << 20
	got := -1
	res, err := runWorldErr(t, 2, 1, nil, func(e *Env) {
		c := e.World()
		if e.Rank() == 0 {
			r, _ := c.IsendN(1, 0, size)
			if c.Cancel(r) {
				t.Error("Cancel of a rendezvous send reported true")
			}
			if _, err := c.Wait(r); err != nil {
				t.Errorf("wait after the refused cancel: %v", err)
			}
			c.Free(r)
			return
		}
		m, err := c.Recv(0, 0)
		if err != nil {
			t.Errorf("recv: %v", err)
			return
		}
		got = m.Size
		m.Release()
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if got != size || res.Completed != 2 {
		t.Fatalf("receiver got %d bytes and %d ranks completed, want %d and 2", got, res.Completed, size)
	}
}
