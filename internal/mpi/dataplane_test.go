package mpi

import (
	"bytes"
	"testing"

	"xsim/internal/core"
	"xsim/internal/procmodel"
	"xsim/internal/vclock"
)

// newWorldT builds an engine+world (validate on) and returns both, so
// tests can schedule failures up front and read pool metrics after Run.
func newWorldT(t *testing.T, n, workers int, failures map[int]vclock.Time) (*core.Engine, *World) {
	t.Helper()
	eng, err := core.New(core.Config{NumVPs: n, Workers: workers, Lookahead: vclock.Microsecond, Validate: true})
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWorld(eng, WorldConfig{Net: testNet(n), Proc: procmodel.Paper()})
	if err != nil {
		t.Fatal(err)
	}
	for r, at := range failures {
		if err := eng.ScheduleFailure(r, at); err != nil {
			t.Fatal(err)
		}
	}
	return eng, w
}

// TestRecvNoAliasAfterRelease pins the buffer-ownership contract: bytes
// copied out of a received message survive Release, a released buffer is
// actually reused for later traffic, and the later message carries its own
// payload (no stale bytes from the previous occupant).
func TestRecvNoAliasAfterRelease(t *testing.T) {
	eng, w := newWorldT(t, 2, 1, nil)
	_ = eng
	first := bytes.Repeat([]byte{0xAA}, 64)
	second := bytes.Repeat([]byte{0xBB}, 64)
	if _, err := w.Run(func(e *Env) {
		c := e.World()
		switch e.Rank() {
		case 0:
			if err := c.Send(1, 1, first); err != nil {
				t.Errorf("send 1: %v", err)
			}
			m, err := c.Recv(1, 2)
			if err != nil {
				t.Errorf("recv echo: %v", err)
			} else {
				if !bytes.Equal(m.Data, second) {
					t.Errorf("echo got %x, want %x", m.Data[:4], second[:4])
				}
				m.Release()
			}
		case 1:
			m1, err := c.Recv(0, 1)
			if err != nil {
				t.Errorf("recv 1: %v", err)
				e.Finalize()
				return
			}
			copied := append([]byte(nil), m1.Data...)
			stale := m1.Data // deliberately kept across Release to prove reuse
			m1.Release()
			// This eager send snapshots `second` at post time; the pool
			// hands it the buffer just released, so the stale alias now
			// shows the new payload. This is exactly why the contract
			// forbids touching Data after Release — and the copy taken
			// beforehand must be unaffected.
			if err := c.Send(0, 2, second); err != nil {
				t.Errorf("send echo: %v", err)
			}
			if !bytes.Equal(copied, first) {
				t.Errorf("copy taken before Release was corrupted: %x", copied[:4])
			}
			if !bytes.Equal(stale, second) {
				t.Errorf("expected the released buffer to be reused for the next same-size send")
			}
		}
		e.Finalize()
	}); err != nil {
		t.Fatal(err)
	}
	m := w.Metrics()
	if m.BufHits == 0 {
		t.Errorf("expected pooled-buffer reuse, metrics report %d hits (%d misses)", m.BufHits, m.BufMisses)
	}
}

// TestBroadcastRootBufferReuse pins the eager copy-at-post rule: a root
// that reuses (and mutates) one buffer across consecutive broadcasts must
// not corrupt in-flight payloads.
func TestBroadcastRootBufferReuse(t *testing.T) {
	const n = 4
	got := make([][2]byte, n)
	eng, w := newWorldT(t, n, 2, nil)
	_ = eng
	if _, err := w.Run(func(e *Env) {
		c := e.World()
		buf := make([]byte, 128)
		// Record the first byte right after each broadcast: at the root,
		// Bcast returns the caller's own buffer, which the app is free to
		// mutate once the call returns.
		if e.Rank() == 0 {
			for i := range buf {
				buf[i] = 0x11
			}
			r1, err := c.Bcast(0, buf)
			if err != nil {
				t.Errorf("bcast 1: %v", err)
			} else {
				got[0][0] = r1[0]
			}
			// Mutate the same buffer immediately: the sends above must
			// have snapshotted it.
			for i := range buf {
				buf[i] = 0x22
			}
			r2, err := c.Bcast(0, buf)
			if err != nil {
				t.Errorf("bcast 2: %v", err)
			} else {
				got[0][1] = r2[0]
			}
		} else {
			r1, err := c.Bcast(0, nil)
			if err != nil {
				t.Errorf("bcast 1: %v", err)
			} else {
				got[e.Rank()][0] = r1[0]
			}
			r2, err := c.Bcast(0, nil)
			if err != nil {
				t.Errorf("bcast 2: %v", err)
			} else {
				got[e.Rank()][1] = r2[0]
			}
		}
		e.Finalize()
	}); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < n; r++ {
		if got[r] != [2]byte{0x11, 0x22} {
			t.Errorf("rank %d saw broadcasts %x, want [11 22]", r, got[r])
		}
	}
}

// TestArmTimeoutAnySourceTieBreak is the regression test for the
// AnySource failure-detection scan with several failed peers: when the
// detection deadlines tie, the lowest-ranked peer wins, and the reported
// time of failure must be that peer's — captured during the scan, not
// looked up afterwards.
func TestArmTimeoutAnySourceTieBreak(t *testing.T) {
	tof1 := vclock.Time(10 * vclock.Microsecond)
	tof2 := vclock.Time(20 * vclock.Microsecond)
	eng, w := newWorldT(t, 3, 1, map[int]vclock.Time{1: tof1, 2: tof2})
	_ = eng
	if _, err := w.Run(func(e *Env) {
		c := e.World()
		c.SetErrorHandler(ErrorsReturn)
		if e.Rank() != 0 {
			// Ranks 1 and 2 idle until their scheduled failures.
			e.Sleep(vclock.Millisecond)
			e.Finalize()
			return
		}
		// Post the wildcard receive well after both failures are known:
		// both peers' deadlines are then max(post, tof) + timeout, which
		// ties — rank 1 must win, with rank 1's time of failure.
		e.Sleep(vclock.Millisecond)
		_, err := c.Recv(AnySource, 5)
		pfe, ok := err.(*ProcFailedError)
		if !ok {
			t.Errorf("wildcard recv returned %v, want ProcFailedError", err)
		} else {
			if pfe.Rank != 1 {
				t.Errorf("tie-break picked rank %d, want 1", pfe.Rank)
			}
			if pfe.FailedAt != tof1 {
				t.Errorf("reported time of failure %v, want %v (rank 1's)", pfe.FailedAt, tof1)
			}
		}
		e.Finalize()
	}); err != nil {
		t.Fatal(err)
	}
}

// TestPoolMetrics checks the data-plane counters surface through
// World.Metrics and aggregate the way MetricsSnapshot.Add documents.
func TestPoolMetrics(t *testing.T) {
	eng, w := newWorldT(t, 2, 1, nil)
	_ = eng
	payload := bytes.Repeat([]byte{0x5A}, 48)
	if _, err := w.Run(func(e *Env) {
		c := e.World()
		// Ping-pong so every Release precedes the next same-size send:
		// after the first round-trip the payload pool serves every buffer.
		for i := 0; i < 32; i++ {
			if e.Rank() == 0 {
				if err := c.Send(1, 1, payload); err != nil {
					t.Errorf("send: %v", err)
				}
				m, err := c.Recv(1, 2)
				if err != nil {
					t.Errorf("recv: %v", err)
				} else {
					m.Release()
				}
			} else {
				m, err := c.Recv(0, 1)
				if err != nil {
					t.Errorf("recv: %v", err)
				} else {
					m.Release()
				}
				if err := c.Send(0, 2, payload); err != nil {
					t.Errorf("send: %v", err)
				}
			}
		}
		e.Finalize()
	}); err != nil {
		t.Fatal(err)
	}
	m := w.Metrics()
	if m.PoolHits == 0 {
		t.Errorf("expected object-pool hits after 32 pooled sends, got 0 (misses %d)", m.PoolMisses)
	}
	if m.BufHits == 0 {
		t.Errorf("expected buffer-pool hits after released receives, got 0 (misses %d)", m.BufMisses)
	}
	if m.BufHighWater <= 0 {
		t.Errorf("expected a positive payload high-water mark, got %d", m.BufHighWater)
	}
	var agg MetricsSnapshot
	agg.Add(m)
	agg.Add(MetricsSnapshot{BufHighWater: 1})
	if agg.PoolHits != m.PoolHits || agg.BufHighWater != m.BufHighWater {
		t.Errorf("Add mis-aggregated pool counters: %+v vs %+v", agg, m)
	}
}

// TestPostedIdxTiers files queues for more sources than the inline array
// and the linear block hold and checks the index tier by tier: the first
// two keys inline, the next six in the one spill block (a 3-D stencil's
// six sources never build a map), the rest in the map; every queue keeps
// the address Request.postQ recorded, and each visits all of them once.
func TestPostedIdxTiers(t *testing.T) {
	var ix postedIdx
	const n = postedInline + postedLinear + 4
	qs := make([]*list[Request], n)
	for i := range qs {
		k := keyOf(i%2, 100+i)
		if ix.get(k) != nil {
			t.Fatalf("key %d found before it was added", i)
		}
		qs[i] = ix.getOrAdd(k)
		if i == postedInline+postedLinear-1 && (ix.spill == nil || ix.spill.more != nil) {
			t.Fatalf("%d keys: spill block %v, map %v; want a block and no map", i+1, ix.spill != nil, ix.spill != nil && ix.spill.more != nil)
		}
	}
	if ix.n != postedInline || ix.spill.n != postedLinear || len(ix.spill.more) != 4 {
		t.Fatalf("tiers hold %d, %d and %d keys", ix.n, ix.spill.n, len(ix.spill.more))
	}
	seen := map[*list[Request]]matchKey{}
	ix.each(func(k matchKey, q *list[Request]) { seen[q] = k })
	for i, q := range qs {
		k := keyOf(i%2, 100+i)
		if ix.get(k) != q || ix.getOrAdd(k) != q {
			t.Errorf("key %d: queue moved", i)
		}
		if seen[q] != k {
			t.Errorf("key %d: each reported %+v for its queue", i, seen[q])
		}
	}
	if len(seen) != n {
		t.Errorf("each visited %d queues, want %d", len(seen), n)
	}
}
