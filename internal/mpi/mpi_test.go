package mpi

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"xsim/internal/core"
	"xsim/internal/fsmodel"
	"xsim/internal/netmodel"
	"xsim/internal/procmodel"
	"xsim/internal/topology"
	"xsim/internal/vclock"
)

// testNet returns a friendly network model: fully connected, 1 µs latency,
// 1 GB/s links, 1 KiB eager threshold, 100 ms detection timeout.
func testNet(n int) *netmodel.Model {
	return &netmodel.Model{
		Topo: topology.NewFullyConnected(n),
		System: netmodel.LinkParams{
			Latency:          vclock.Microsecond,
			Bandwidth:        1e9,
			DetectionTimeout: 100 * vclock.Millisecond,
		},
		OnNode: netmodel.LinkParams{
			Latency:          vclock.Microsecond,
			Bandwidth:        1e9,
			DetectionTimeout: 100 * vclock.Millisecond,
		},
		EagerThreshold: 1024,
	}
}

// worldOpt adjusts the engine and world configurations of a test world.
type worldOpt func(*core.Config, *WorldConfig)

func withTree() worldOpt { return func(_ *core.Config, c *WorldConfig) { c.Collectives = Tree } }

// runWorld builds an engine+world over n ranks and runs app; the app need
// not call Finalize (the harness appends it).
func runWorld(t *testing.T, n, workers int, app func(*Env), opts ...worldOpt) *core.Result {
	t.Helper()
	res, err := runWorldErr(t, n, workers, nil, app, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// runWorldErr is runWorld returning the raw error; failures scheduled via
// the failures map (rank -> time).
func runWorldErr(t *testing.T, n, workers int, failures map[int]vclock.Time, app func(*Env), opts ...worldOpt) (*core.Result, error) {
	t.Helper()
	ecfg := core.Config{NumVPs: n, Workers: workers, Lookahead: vclock.Microsecond}
	cfg := WorldConfig{Net: testNet(n), Proc: procmodel.Paper()}
	for _, o := range opts {
		o(&ecfg, &cfg)
	}
	eng, err := core.New(ecfg)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWorld(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for r, at := range failures {
		if err := eng.ScheduleFailure(r, at); err != nil {
			t.Fatal(err)
		}
	}
	return w.Run(func(e *Env) {
		app(e)
		if !e.Finalized() {
			e.Finalize()
		}
	})
}

func TestEagerSendRecv(t *testing.T) {
	net := testNet(2)
	wantArrive := net.TransferTime(0, 1, 100)
	runWorld(t, 2, 1, func(e *Env) {
		c := e.World()
		switch e.Rank() {
		case 0:
			payload := make([]byte, 100)
			for i := range payload {
				payload[i] = byte(i)
			}
			if err := c.Send(1, 7, payload); err != nil {
				t.Errorf("send: %v", err)
			}
			// Eager sends complete locally after injection.
			if got, want := e.Now(), vclock.Time(0).Add(net.SendOverhead(0, 1, 100)); got != want {
				t.Errorf("sender clock = %v, want %v", got, want)
			}
		case 1:
			msg, err := c.Recv(0, 7)
			if err != nil {
				t.Errorf("recv: %v", err)
				return
			}
			if msg.Src != 0 || msg.Tag != 7 || msg.Size != 100 || len(msg.Data) != 100 {
				t.Errorf("msg = %+v", msg)
			}
			if got := e.Now(); got != vclock.Time(0).Add(wantArrive) {
				t.Errorf("recv clock = %v, want %v", got, vclock.Time(0).Add(wantArrive))
			}
		}
	})
}

func TestSendNPayloadFree(t *testing.T) {
	runWorld(t, 2, 1, func(e *Env) {
		c := e.World()
		if e.Rank() == 0 {
			if err := c.SendN(1, 0, 1<<20); err != nil {
				t.Errorf("sendN: %v", err)
			}
		} else {
			msg, err := c.Recv(0, 0)
			if err != nil {
				t.Errorf("recv: %v", err)
				return
			}
			if msg.Size != 1<<20 || msg.Data != nil {
				t.Errorf("msg = %+v", msg)
			}
		}
	})
}

func TestRendezvousTiming(t *testing.T) {
	net := testNet(2)
	size := 4096 // above the 1 KiB threshold
	if net.Eager(size) {
		t.Fatal("test size should use rendezvous")
	}
	runWorld(t, 2, 1, func(e *Env) {
		c := e.World()
		if e.Rank() == 0 {
			// Receiver posts late at t=1ms.
			e.Elapse(vclock.Millisecond)
			msg, err := c.Recv(1, 0)
			if err != nil {
				t.Errorf("recv: %v", err)
				return
			}
			if msg.Size != size {
				t.Errorf("size = %d", msg.Size)
			}
			// Envelope waits unexpected; match at post (1 ms); CTS back
			// (1 µs); data transfer (1 µs + size/bw).
			want := vclock.Time(0).
				Add(vclock.Millisecond).
				Add(net.ControlTime(0, 1)).
				Add(net.TransferTime(1, 0, size))
			if got := e.Now(); got != want {
				t.Errorf("recv done at %v, want %v", got, want)
			}
		} else {
			if err := c.SendN(0, 0, size); err != nil {
				t.Errorf("send: %v", err)
				return
			}
			// Sender completes at CTS arrival + injection.
			want := vclock.Time(0).
				Add(vclock.Millisecond).
				Add(net.ControlTime(0, 1)).
				Add(net.SendOverhead(1, 0, size))
			if got := e.Now(); got != want {
				t.Errorf("send done at %v, want %v", got, want)
			}
		}
	})
}

func TestRendezvousPayload(t *testing.T) {
	payload := make([]byte, 2000)
	for i := range payload {
		payload[i] = byte(i)
	}
	runWorld(t, 2, 1, func(e *Env) {
		c := e.World()
		if e.Rank() == 0 {
			if err := c.Send(1, 3, payload); err != nil {
				t.Errorf("send: %v", err)
			}
		} else {
			msg, err := c.Recv(0, 3)
			if err != nil {
				t.Errorf("recv: %v", err)
				return
			}
			if len(msg.Data) != len(payload) {
				t.Fatalf("len = %d", len(msg.Data))
			}
			for i := range payload {
				if msg.Data[i] != payload[i] {
					t.Fatalf("payload corrupted at %d", i)
				}
			}
		}
	})
}

func TestAnySourceAnyTag(t *testing.T) {
	runWorld(t, 3, 1, func(e *Env) {
		c := e.World()
		switch e.Rank() {
		case 1, 2:
			e.Elapse(vclock.Duration(e.Rank()) * vclock.Millisecond)
			if err := c.Send(0, e.Rank()*10, []byte{byte(e.Rank())}); err != nil {
				t.Errorf("send: %v", err)
			}
		case 0:
			// Earliest arrival (rank 1, sent at 1 ms) matches first.
			m1, err := c.Recv(AnySource, AnyTag)
			if err != nil {
				t.Fatalf("recv1: %v", err)
			}
			m2, err := c.Recv(AnySource, AnyTag)
			if err != nil {
				t.Fatalf("recv2: %v", err)
			}
			if m1.Src != 1 || m2.Src != 2 {
				t.Errorf("order: got %d then %d, want 1 then 2", m1.Src, m2.Src)
			}
			if m1.Tag != 10 || m2.Tag != 20 {
				t.Errorf("tags: %d %d", m1.Tag, m2.Tag)
			}
		}
	})
}

func TestNonOvertaking(t *testing.T) {
	runWorld(t, 2, 1, func(e *Env) {
		c := e.World()
		if e.Rank() == 0 {
			for i := 0; i < 5; i++ {
				if _, err := c.Isend(1, 0, []byte{byte(i)}); err != nil {
					t.Errorf("isend: %v", err)
				}
			}
		} else {
			e.Elapse(vclock.Millisecond) // let them all queue unexpected
			for i := 0; i < 5; i++ {
				msg, err := c.Recv(0, 0)
				if err != nil {
					t.Fatalf("recv %d: %v", i, err)
				}
				if msg.Data[0] != byte(i) {
					t.Fatalf("message %d out of order: got %d", i, msg.Data[0])
				}
			}
		}
	})
}

func TestIsendIrecvWaitall(t *testing.T) {
	runWorld(t, 2, 1, func(e *Env) {
		c := e.World()
		if e.Rank() == 0 {
			var reqs []*Request
			for i := 0; i < 4; i++ {
				r, err := c.IsendN(1, i, 64)
				if err != nil {
					t.Fatalf("isend: %v", err)
				}
				reqs = append(reqs, r)
			}
			if err := c.Waitall(reqs); err != nil {
				t.Errorf("waitall: %v", err)
			}
		} else {
			var reqs []*Request
			for i := 3; i >= 0; i-- { // post in reverse tag order
				r, err := c.Irecv(0, i)
				if err != nil {
					t.Fatalf("irecv: %v", err)
				}
				reqs = append(reqs, r)
			}
			if err := c.Waitall(reqs); err != nil {
				t.Errorf("waitall: %v", err)
			}
			for i, r := range reqs {
				if !r.Done() || r.Msg().Tag != 3-i {
					t.Errorf("req %d: done=%v tag=%d", i, r.Done(), r.Msg().Tag)
				}
			}
		}
	})
}

func TestSelfSend(t *testing.T) {
	runWorld(t, 1, 1, func(e *Env) {
		c := e.World()
		r, err := c.Isend(0, 5, []byte("self"))
		if err != nil {
			t.Fatalf("isend: %v", err)
		}
		msg, err := c.Recv(0, 5)
		if err != nil {
			t.Fatalf("recv: %v", err)
		}
		if string(msg.Data) != "self" {
			t.Errorf("data = %q", msg.Data)
		}
		if _, err := c.Wait(r); err != nil {
			t.Errorf("wait: %v", err)
		}
	})
}

func TestBarrierSynchronises(t *testing.T) {
	for _, opt := range []struct {
		name string
		opts []worldOpt
	}{{"linear", nil}, {"tree", []worldOpt{withTree()}}} {
		t.Run(opt.name, func(t *testing.T) {
			finish := make([]vclock.Time, 4)
			start := make([]vclock.Time, 4)
			runWorld(t, 4, 1, func(e *Env) {
				// Stagger arrivals: rank r arrives at r seconds.
				e.Elapse(vclock.Duration(e.Rank()) * vclock.Second)
				start[e.Rank()] = e.Now()
				if err := e.World().Barrier(); err != nil {
					t.Errorf("barrier: %v", err)
				}
				finish[e.Rank()] = e.Now()
			}, opt.opts...)
			last := start[3]
			for r, f := range finish {
				if f < last {
					t.Errorf("rank %d left the barrier at %v, before the last arrival %v", r, f, last)
				}
			}
		})
	}
}

func TestBcast(t *testing.T) {
	for _, opt := range []struct {
		name string
		opts []worldOpt
	}{{"linear", nil}, {"tree", []worldOpt{withTree()}}} {
		t.Run(opt.name, func(t *testing.T) {
			runWorld(t, 7, 1, func(e *Env) {
				var in []byte
				if e.Rank() == 2 {
					in = []byte("broadcast payload")
				}
				out, err := e.World().Bcast(2, in)
				if err != nil {
					t.Errorf("bcast: %v", err)
					return
				}
				if string(out) != "broadcast payload" {
					t.Errorf("rank %d got %q", e.Rank(), out)
				}
			}, opt.opts...)
		})
	}
}

func TestReduceAndAllreduce(t *testing.T) {
	const n = 6
	runWorld(t, n, 1, func(e *Env) {
		c := e.World()
		contrib := []float64{float64(e.Rank()), 1}
		sum, err := c.Reduce(0, contrib, OpSum)
		if err != nil {
			t.Errorf("reduce: %v", err)
			return
		}
		if e.Rank() == 0 {
			if sum[0] != float64(n*(n-1)/2) || sum[1] != n {
				t.Errorf("reduce = %v", sum)
			}
		} else if sum != nil {
			t.Errorf("non-root reduce = %v", sum)
		}
		all, err := c.Allreduce([]float64{float64(e.Rank())}, OpMax)
		if err != nil {
			t.Errorf("allreduce: %v", err)
			return
		}
		if all[0] != n-1 {
			t.Errorf("allreduce max = %v", all)
		}
	})
}

func TestGatherScatter(t *testing.T) {
	const n = 5
	runWorld(t, n, 1, func(e *Env) {
		c := e.World()
		got, err := c.Gather(1, []byte{byte(e.Rank() * 3)})
		if err != nil {
			t.Errorf("gather: %v", err)
			return
		}
		if e.Rank() == 1 {
			for r := 0; r < n; r++ {
				if len(got[r]) != 1 || got[r][0] != byte(r*3) {
					t.Errorf("gather[%d] = %v", r, got[r])
				}
			}
		}
		var parts [][]byte
		if e.Rank() == 0 {
			for r := 0; r < n; r++ {
				parts = append(parts, []byte{byte(r + 100)})
			}
		}
		mine, err := c.Scatter(0, parts)
		if err != nil {
			t.Errorf("scatter: %v", err)
			return
		}
		if len(mine) != 1 || mine[0] != byte(e.Rank()+100) {
			t.Errorf("scatter mine = %v", mine)
		}
	})
}

func TestAllgatherAlltoall(t *testing.T) {
	const n = 4
	runWorld(t, n, 1, func(e *Env) {
		c := e.World()
		all, err := c.Allgather([]byte(fmt.Sprintf("r%d", e.Rank())))
		if err != nil {
			t.Errorf("allgather: %v", err)
			return
		}
		for r := 0; r < n; r++ {
			if string(all[r]) != fmt.Sprintf("r%d", r) {
				t.Errorf("allgather[%d] = %q", r, all[r])
			}
		}
		parts := make([][]byte, n)
		for r := range parts {
			parts[r] = []byte{byte(e.Rank()*10 + r)}
		}
		got, err := c.Alltoall(parts)
		if err != nil {
			t.Errorf("alltoall: %v", err)
			return
		}
		for r := 0; r < n; r++ {
			if len(got[r]) != 1 || got[r][0] != byte(r*10+e.Rank()) {
				t.Errorf("alltoall[%d] = %v", r, got[r])
			}
		}
	})
}

func TestRecvFromFailedPeerTimesOut(t *testing.T) {
	net := testNet(2)
	failAt := vclock.TimeFromSeconds(1)
	res, err := runWorldErr(t, 2, 1, map[int]vclock.Time{0: failAt}, func(e *Env) {
		c := e.World()
		c.SetErrorHandler(ErrorsReturn)
		switch e.Rank() {
		case 0:
			e.Elapse(10 * vclock.Second) // failure activates at 10 s (end of compute)
		case 1:
			_, err := c.Recv(0, 0)
			pf, ok := err.(*ProcFailedError)
			if !ok {
				t.Fatalf("recv err = %v, want ProcFailedError", err)
			}
			if pf.Rank != 0 {
				t.Errorf("failed rank = %d", pf.Rank)
			}
			// Actual failure at 10 s (when the simulator regained
			// control); detection at max(post, failure) + timeout.
			wantFail := vclock.TimeFromSeconds(10)
			if pf.FailedAt != wantFail {
				t.Errorf("failedAt = %v, want %v", pf.FailedAt, wantFail)
			}
			want := wantFail.Add(net.Timeout(1, 0))
			if got := e.Now(); got != want {
				t.Errorf("detection at %v, want %v", got, want)
			}
			if len(e.FailedPeers()) != 1 {
				t.Errorf("failedPeers = %v", e.FailedPeers())
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 1 || res.Completed != 1 {
		t.Fatalf("result = %+v", res)
	}
}

func TestAnySourceReleasedOnFailure(t *testing.T) {
	res, err := runWorldErr(t, 2, 1, map[int]vclock.Time{0: vclock.TimeFromSeconds(1)}, func(e *Env) {
		c := e.World()
		c.SetErrorHandler(ErrorsReturn)
		switch e.Rank() {
		case 0:
			e.Elapse(2 * vclock.Second)
		case 1:
			_, err := c.Recv(AnySource, AnyTag)
			if _, ok := err.(*ProcFailedError); !ok {
				t.Errorf("wildcard recv err = %v, want ProcFailedError", err)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 1 || res.Completed != 1 {
		t.Fatalf("result = %+v", res)
	}
}

func TestRendezvousSendToFailedPeerTimesOut(t *testing.T) {
	res, err := runWorldErr(t, 2, 1, map[int]vclock.Time{1: vclock.TimeFromSeconds(1)}, func(e *Env) {
		c := e.World()
		c.SetErrorHandler(ErrorsReturn)
		switch e.Rank() {
		case 0:
			// Rendezvous send blocks for a receiver that dies without
			// ever posting the receive.
			err := c.SendN(1, 0, 1<<20)
			if _, ok := err.(*ProcFailedError); !ok {
				t.Errorf("send err = %v, want ProcFailedError", err)
			}
		case 1:
			e.Elapse(2 * vclock.Second)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 1 || res.Completed != 1 {
		t.Fatalf("result = %+v", res)
	}
}

func TestFatalErrorAborts(t *testing.T) {
	res, err := runWorldErr(t, 4, 1, map[int]vclock.Time{2: vclock.TimeFromSeconds(1)}, func(e *Env) {
		c := e.World() // default handler: ErrorsAreFatal
		// Everybody receives from the next rank in a ring; rank 1's recv
		// from rank 2 detects the failure and aborts the application.
		next := (e.Rank() + 1) % e.Size()
		prev := (e.Rank() + 3) % e.Size()
		if _, err := c.Isend(prev, 0, nil); err != nil {
			t.Errorf("isend: %v", err)
		}
		for {
			if _, err := c.Recv(next, 0); err != nil {
				t.Errorf("unexpected returned error: %v", err)
				return
			}
			// Keep receiving forever; only the abort ends this loop.
			if _, err := c.Isend(next, 0, nil); err != nil {
				return
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 1 {
		t.Fatalf("failed = %d, want 1 (%+v)", res.Failed, res)
	}
	if res.Aborted != 3 {
		t.Fatalf("aborted = %d, want 3 (%+v)", res.Aborted, res)
	}
}

func TestUserErrorHandler(t *testing.T) {
	var handled error
	res, err := runWorldErr(t, 2, 1, map[int]vclock.Time{0: 0}, func(e *Env) {
		c := e.World()
		if e.Rank() == 1 {
			c.SetUserErrorHandler(func(_ *Comm, err error) { handled = err })
			if _, err := c.Recv(0, 0); err == nil {
				t.Error("recv should fail")
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if handled == nil {
		t.Error("user handler not invoked")
	}
	if res.Failed != 1 || res.Completed != 1 {
		t.Fatalf("result = %+v", res)
	}
}

func TestMissingFinalizeIsFailure(t *testing.T) {
	eng, err := core.New(core.Config{NumVPs: 1})
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWorld(eng, WorldConfig{Net: testNet(1), Proc: procmodel.Paper()})
	if err != nil {
		t.Fatal(err)
	}
	res, err := w.Run(func(e *Env) {
		e.Elapse(vclock.Second)
		// No Finalize: exiting main without MPI_Finalize is a process
		// failure under the paper's fault model.
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 1 || res.Completed != 0 {
		t.Fatalf("result = %+v", res)
	}
}

func TestCommDupAndSub(t *testing.T) {
	runWorld(t, 4, 1, func(e *Env) {
		c := e.World()
		d := c.Dup()
		if d.ID() == c.ID() || d.Rank() != c.Rank() || d.Size() != c.Size() {
			t.Errorf("dup: %v vs %v", d, c)
		}
		// Messages on different communicators do not cross-match.
		if e.Rank() == 0 {
			if _, err := d.Isend(1, 0, []byte("on dup")); err != nil {
				t.Fatalf("isend: %v", err)
			}
			if _, err := c.Isend(1, 0, []byte("on world")); err != nil {
				t.Fatalf("isend: %v", err)
			}
		}
		if e.Rank() == 1 {
			m, err := c.Recv(0, 0)
			if err != nil || string(m.Data) != "on world" {
				t.Errorf("world recv: %v %q", err, m.Data)
			}
			m, err = d.Recv(0, 0)
			if err != nil || string(m.Data) != "on dup" {
				t.Errorf("dup recv: %v %q", err, m.Data)
			}
		}
		// Sub communicator over the even ranks.
		sub := c.Sub([]int{0, 2})
		switch e.Rank() {
		case 0:
			if sub.Rank() != 0 || sub.Size() != 2 || sub.WorldRank(1) != 2 {
				t.Errorf("sub at 0: %v", sub)
			}
			if err := sub.Send(1, 9, []byte("sub")); err != nil {
				t.Errorf("sub send: %v", err)
			}
		case 2:
			if sub.Rank() != 1 {
				t.Errorf("sub rank = %d", sub.Rank())
			}
			if m, err := sub.Recv(0, 9); err != nil || string(m.Data) != "sub" {
				t.Errorf("sub recv: %v", err)
			}
		default:
			if sub.Rank() != -1 {
				t.Errorf("non-member sub rank = %d", sub.Rank())
			}
		}
	})
}

func TestValidationErrors(t *testing.T) {
	runWorld(t, 2, 1, func(e *Env) {
		c := e.World()
		c.SetErrorHandler(ErrorsReturn)
		if err := c.Send(5, 0, nil); err == nil {
			t.Error("send to out-of-range rank should fail")
		}
		if err := c.Send(1, -3, nil); err == nil {
			t.Error("negative tag should fail")
		}
		if _, err := c.Recv(9, 0); err == nil {
			t.Error("recv from out-of-range rank should fail")
		}
		if _, err := c.Recv(1, -3); err == nil {
			t.Error("negative recv tag should fail")
		}
	})
}

func TestWorldConfigValidation(t *testing.T) {
	eng, _ := core.New(core.Config{NumVPs: 4})
	if _, err := NewWorld(eng, WorldConfig{}); err == nil {
		t.Error("missing Net should fail")
	}
	small := testNet(2) // 2-node topology for 4 ranks
	if _, err := NewWorld(eng, WorldConfig{Net: small, Proc: procmodel.Paper()}); err == nil {
		t.Error("undersized topology should fail")
	}
	// Parallel engine with lookahead above the notification delay.
	eng2, _ := core.New(core.Config{NumVPs: 4, Workers: 2, Lookahead: vclock.Second})
	if _, err := NewWorld(eng2, WorldConfig{Net: testNet(4), Proc: procmodel.Paper()}); err == nil {
		t.Error("lookahead above min delay should fail")
	}
}

func TestFSAccessors(t *testing.T) {
	// An empty hierarchy is one free tier.
	for _, tc := range []struct{ hier, want fsmodel.Hierarchy }{
		{fsmodel.PaperPFS(), fsmodel.PaperPFS()},
		{nil, fsmodel.Hierarchy{{}}},
	} {
		eng, _ := core.New(core.Config{NumVPs: 1})
		store := fsmodel.NewStore()
		w, err := NewWorld(eng, WorldConfig{Net: testNet(1), Proc: procmodel.Paper(), FSStore: store, FSHierarchy: tc.hier})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Run(func(e *Env) {
			if e.FSStore() != store {
				t.Error("FSStore mismatch")
			}
			if got := e.FSHierarchy(); !slices.Equal(got, tc.want) {
				t.Errorf("FSHierarchy %+v, want %+v", got, tc.want)
			}
			e.Finalize()
		}); err != nil {
			t.Fatal(err)
		}
	}
}

// ringWorkload circulates a token around a ring several times.
func ringWorkload(t *testing.T, n, workers int) *core.Result {
	t.Helper()
	return runWorld(t, n, workers, func(e *Env) {
		c := e.World()
		next := (e.Rank() + 1) % n
		prev := (e.Rank() - 1 + n) % n
		for round := 0; round < 3; round++ {
			e.Compute(1e6)
			if e.Rank() == 0 {
				if err := c.Send(next, round, []byte{byte(round)}); err != nil {
					t.Errorf("send: %v", err)
				}
				if _, err := c.Recv(prev, round); err != nil {
					t.Errorf("recv: %v", err)
				}
			} else {
				m, err := c.Recv(prev, round)
				if err != nil || m.Data[0] != byte(round) {
					t.Errorf("recv: %v", err)
				}
				if err := c.Send(next, round, m.Data); err != nil {
					t.Errorf("send: %v", err)
				}
			}
		}
	})
}

func TestParallelEngineMatchesSequentialMPI(t *testing.T) {
	seq := ringWorkload(t, 8, 1)
	for _, workers := range []int{2, 4} {
		par := ringWorkload(t, 8, workers)
		for r := range seq.FinalClocks {
			if seq.FinalClocks[r] != par.FinalClocks[r] {
				t.Fatalf("workers=%d: rank %d clock %v != %v", workers, r, par.FinalClocks[r], seq.FinalClocks[r])
			}
		}
	}
}

func TestDeadlockReportNamesWait(t *testing.T) {
	_, err := runWorldErr(t, 2, 1, nil, func(e *Env) {
		if e.Rank() == 0 {
			if _, err := e.World().Recv(1, 0); err != nil {
				t.Errorf("recv: %v", err)
			}
		}
	})
	if err == nil || !strings.Contains(err.Error(), "recv from 1") {
		t.Fatalf("err = %v, want deadlock naming the recv", err)
	}
}

func TestProcFailedErrorString(t *testing.T) {
	e := &ProcFailedError{Rank: 3, FailedAt: vclock.TimeFromSeconds(2), Op: "recv"}
	if !strings.Contains(e.Error(), "rank 3") || !strings.Contains(e.Error(), "recv") {
		t.Errorf("error string = %q", e.Error())
	}
	r := &RevokedError{Comm: 2}
	if !strings.Contains(r.Error(), "revoked") {
		t.Errorf("revoked string = %q", r.Error())
	}
}
