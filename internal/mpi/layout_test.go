package mpi

import (
	"testing"
	"unsafe"

	"xsim/internal/vclock"
)

// TestRequestLayout pins the size of a Request. Every rank holds six of
// them live at every halo exchange (one per receive, all posted at one
// virtual instant; its eager sends share eagerSent), so at the all-ranks
// burst this struct is a large share of the heap: 200 bytes each, twelve
// per rank, read 47 % of it at 32k ranks. 96 is an allocator size class
// (112 while a request had links for its posted list and the pending
// list at once); a field that only some requests use belongs in reqCold.
func TestRequestLayout(t *testing.T) {
	if got := unsafe.Sizeof(Request{}); got > 96 {
		t.Errorf("unsafe.Sizeof(Request{}) = %d, want <= 96: six live per rank at every halo burst", got)
	}
}

// TestRankBundleLayout pins what every rank holds for its world's life.
// A parked program-mode rank of the paper's halo exchange is its progEnv
// (its Env and its Prog in one object), its application's own state and
// the posted index's spill block its six sources and the barrier root
// fill; at a million ranks each of these bytes is a megabyte of resident
// memory, and each crossing of an allocator size class a step up (the
// program-mode object read 304 bytes, in the 320-byte class, before its
// counters became 32-bit, and 288 while the Env reached its state and its
// world communicator through pointers). A closure-mode rank is its Env,
// beside a carrier stack while it runs and alone once it has finished. A
// rank that ever queues an unexpected envelope, probes or revokes adds
// its procCold (168 bytes, in the 176-byte class, while it held a map
// for a pending list longer than any workload builds).
func TestRankBundleLayout(t *testing.T) {
	for _, c := range []struct {
		name     string
		got, max uintptr
	}{
		{"progEnv", unsafe.Sizeof(progEnv{}), 256},
		{"Env", unsafe.Sizeof(Env{}), 240},
		{"srcSpill[Request]", unsafe.Sizeof(srcSpill[Request]{}), 160},
		{"procCold", unsafe.Sizeof(procCold{}), 160},
	} {
		if c.got > c.max {
			t.Errorf("unsafe.Sizeof(%s{}) = %d, want <= %d: one per rank for its world's life", c.name, c.got, c.max)
		}
	}
}

// haloRank is the paper's heat application as far as its posted-receive
// index sees it: a six-neighbour exchange on a periodic 3-D process grid
// with a barrier after each round.
type haloRank struct {
	side, rounds int
	reqs         [12]*Request
	ws           WaitState
	cs           CollectiveState
	phase        int
	onDone       func(*Env)
}

func (p *haloRank) Step(e *Env, _ any) (any, bool) {
	c, r, s := e.World(), e.Rank(), p.side
	for ; p.rounds > 0; p.rounds-- {
		if p.phase == 0 {
			x, y, z := r%s, r/s%s, r/(s*s)
			nbrs := [6]int{
				(x+1)%s + y*s + z*s*s, (x+s-1)%s + y*s + z*s*s,
				x + (y+1)%s*s + z*s*s, x + (y+s-1)%s*s + z*s*s,
				x + y*s + (z+1)%s*s*s, x + y*s + (z+s-1)%s*s*s,
			}
			for i, nb := range nbrs {
				p.reqs[i], _ = c.Irecv(nb, i^1)
			}
			for i, nb := range nbrs {
				p.reqs[6+i], _ = c.IsendN(nb, i, 512)
			}
			p.ws.Begin(p.reqs[:]...)
			p.phase = 1
		}
		if p.phase == 1 {
			if done, park, _ := c.WaitallStep(&p.ws); !done {
				return park, false
			}
			for i, req := range p.reqs {
				c.Free(req)
				p.reqs[i] = nil
			}
			p.cs.BeginBarrier()
			p.phase = 2
		}
		if done, park, _ := c.CollectiveStep(&p.cs); !done {
			return park, false
		}
		p.phase = 0
	}
	p.onDone(e)
	e.Finalize()
	return nil, true
}

// TestHaloRankPostedIndexStaysOffMap: a rank of the paper's halo exchange
// receives from seven (communicator, source) keys, its six neighbours and
// the barrier root, and the posted index keeps all seven in its inline
// slots and its one spill block. With one slot fewer in the block, every
// non-root rank would carry a map for its world's life (+5 % peak RSS at
// 64k ranks). Only the barrier root, which hears from every rank, goes
// past the block: its world communicator's queues end in a dense table,
// with no map left beside it.
func TestHaloRankPostedIndexStaysOffMap(t *testing.T) {
	const side = 4
	_, w := newWorldT(t, side*side*side, 1, nil)
	keys := make([]int, side*side*side)
	if _, err := w.RunProgs(func(rank int) Prog {
		return &haloRank{side: side, rounds: 2, onDone: func(e *Env) {
			n := 0
			e.posted.each(func(matchKey, *list[Request]) { n++ })
			pm, pt := e.posted.farTier()
			um, ut := e.cold.unexp.farTier()
			maps, tables := pm+um, pt+ut
			switch {
			case rank != 0 && (maps != 0 || tables != 0):
				t.Errorf("rank %d: its indexes built %d map queues and %d dense tables", rank, maps, tables)
			case rank == 0 && (maps != 0 || tables == 0):
				t.Errorf("barrier root: %d map queues and %d dense tables, want none and at least one", maps, tables)
			}
			keys[rank] = n
		}}
	}); err != nil {
		t.Fatal(err)
	}
	if keys[side*side+side+1] != 7 {
		t.Errorf("a rank off the root's neighbourhood posted to %d keys, want 7", keys[side*side+side+1])
	}
}

// TestCollectiveStateLayout pins the size of a CollectiveState: every
// program that runs a collective embeds one, and so does every closure
// VP's scratch. The survivor exchange's failed set (Shrink, Agree) is its
// only field beyond the collectives' own.
func TestCollectiveStateLayout(t *testing.T) {
	if got := unsafe.Sizeof(CollectiveState{}); got > 312 {
		t.Errorf("unsafe.Sizeof(CollectiveState{}) = %d, want <= 312", got)
	}
}

// coldGets is the number of cold records a pool has handed out.
func coldGets(dp *dpPool) uint64 { return dp.colds.hits + dp.colds.misses }

// coldsOut is the number of cold records checked out of a pool and not yet
// returned (the tests here stay far below the free list's cap).
func coldsOut(dp *dpPool) int { return int(dp.colds.misses) - len(dp.colds.free) }

// TestColdRecordsOnlyWhereUsed checks which requests take a cold record:
// none in a modelled exchange with exact sources and tags, eager or
// rendezvous; exactly one for each request that carries a payload, a
// wildcard-tag header or an error. Every record goes back to the pool when
// its request is freed.
func TestColdRecordsOnlyWhereUsed(t *testing.T) {
	const tag = 5
	small, big := pattern(64, 1), pattern(4096, 2) // testNet's eager threshold is 1 KiB
	cases := []struct {
		name     string
		n        int
		failures map[int]vclock.Time
		// script runs on every rank and returns the requests it completed
		// but has not freed yet, each of which must hold a cold record
		// iff want says so.
		script func(t *testing.T, e *Env) []*Request
		want   uint64 // cold records taken over the run
	}{
		{
			name: "modelled six-neighbour exchange", n: 8,
			script: func(t *testing.T, e *Env) []*Request {
				c, r, n := e.World(), e.Rank(), e.Size()
				var reqs []*Request
				for d := 1; d <= 3; d++ {
					for _, peer := range []int{(r + d) % n, (r - d + n) % n} {
						req, err := c.Irecv(peer, tag+d)
						if err != nil {
							t.Fatal(err)
						}
						reqs = append(reqs, req)
					}
				}
				for d := 1; d <= 3; d++ {
					for _, peer := range []int{(r - d + n) % n, (r + d) % n} {
						size := 64
						if d == 2 {
							size = 4096 // payload-free rendezvous
						}
						req, err := c.IsendN(peer, tag+d, size)
						if err != nil {
							t.Fatal(err)
						}
						reqs = append(reqs, req)
					}
				}
				if err := c.Waitall(reqs); err != nil {
					t.Fatal(err)
				}
				return reqs
			},
			want: 0,
		},
		{
			name: "payload receive", n: 2,
			script: func(t *testing.T, e *Env) []*Request {
				c := e.World()
				if e.Rank() == 1 {
					if err := c.Send(0, tag, small); err != nil { // eager: born done, no record
						t.Fatal(err)
					}
					return nil
				}
				return []*Request{recvReq1(t, c, 1, tag)}
			},
			want: 1,
		},
		{
			name: "wildcard receive (any source, any tag)", n: 2,
			script: func(t *testing.T, e *Env) []*Request {
				c := e.World()
				if e.Rank() == 1 {
					if err := c.SendN(0, tag, 64); err != nil {
						t.Fatal(err)
					}
					return nil
				}
				return []*Request{recvReq1(t, c, AnySource, AnyTag)}
			},
			want: 1, // the header's tag is not the posted one
		},
		{
			name: "wildcard source, exact tag", n: 2,
			script: func(t *testing.T, e *Env) []*Request {
				c := e.World()
				if e.Rank() == 1 {
					if err := c.SendN(0, tag, 64); err != nil {
						t.Fatal(err)
					}
					return nil
				}
				return []*Request{recvReq1(t, c, AnySource, tag)}
			},
			want: 0, // the matched source is the request's src, as a world rank
		},
		{
			name: "rendezvous send", n: 2,
			script: func(t *testing.T, e *Env) []*Request {
				c := e.World()
				if e.Rank() == 0 {
					msg, err := c.Recv(1, tag) // its own record, returned with the request
					if err != nil {
						t.Fatal(err)
					}
					msg.Release()
					return nil
				}
				req, err := c.Isend(0, tag, big) // holds the caller's buffer until the clear-to-send
				if err != nil {
					t.Fatal(err)
				}
				if req.cold == nil || req.cold.data == nil {
					t.Errorf("a rendezvous send before its clear-to-send holds no buffer")
				}
				if _, err := c.Wait(req); err != nil {
					t.Fatal(err)
				}
				return []*Request{req}
			},
			want: 2, // the send's and its payload receive's
		},
		{
			name: "failed-peer timeout", n: 2, failures: map[int]vclock.Time{1: vclock.Time(vclock.Millisecond)},
			script: func(t *testing.T, e *Env) []*Request {
				c := e.World()
				if e.Rank() == 1 {
					e.Sleep(vclock.Second)
					return nil
				}
				c.SetErrorHandler(ErrorsReturn)
				req, err := c.Irecv(1, tag)
				if err != nil {
					t.Fatal(err)
				}
				if err := c.Waitall([]*Request{req}); err == nil {
					t.Fatal("receive from a failed peer completed without an error")
				}
				return []*Request{req}
			},
			want: 1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, w := newWorldT(t, tc.n, 1, tc.failures)
			dp := w.pools[0]
			if _, err := w.Run(func(e *Env) {
				reqs := tc.script(t, e)
				for _, r := range reqs {
					if hold := r.cold != nil; hold != (tc.want > 0) {
						t.Errorf("rank %d request %d: holds a cold record = %v, want %v", e.Rank(), r.id, hold, tc.want > 0)
					}
				}
				for _, r := range reqs {
					e.World().Free(r)
				}
				e.Finalize()
			}); err != nil && tc.failures == nil {
				t.Fatal(err)
			}
			if got := coldGets(dp); got != tc.want {
				t.Errorf("%d cold records taken, want %d", got, tc.want)
			}
			if out := coldsOut(dp); out != 0 {
				t.Errorf("%d cold records still checked out after every request was freed", out)
			}
		})
	}
}

// recvReq1 posts one receive and waits for it, leaving the request to the
// caller.
func recvReq1(t *testing.T, c *Comm, src, tag int) *Request {
	t.Helper()
	req, err := c.Irecv(src, tag)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Waitall([]*Request{req}); err != nil {
		t.Fatal(err)
	}
	return req
}

// TestTagsOutsideInt32Rejected: a Request stores its tag in 32 bits, so a
// tag past 2^31-1 must fail at post rather than match as a truncated one.
func TestTagsOutsideInt32Rejected(t *testing.T) {
	_, w := newWorldT(t, 2, 1, nil)
	if _, err := w.Run(func(e *Env) {
		c := e.World()
		c.SetErrorHandler(ErrorsReturn)
		if _, err := c.IsendN(1-e.Rank(), 1<<31, 8); err == nil {
			t.Error("IsendN accepted tag 2^31")
		}
		if _, err := c.Irecv(1-e.Rank(), 1<<31); err == nil {
			t.Error("Irecv accepted tag 2^31")
		}
		e.Finalize()
	}); err != nil {
		t.Fatal(err)
	}
}
