package redundancy

import (
	"encoding/binary"
	"errors"
	"math"
	"testing"

	"xsim/internal/core"
	"xsim/internal/mpi"
	"xsim/internal/netmodel"
	"xsim/internal/procmodel"
	"xsim/internal/softerror"
	"xsim/internal/topology"
	"xsim/internal/vclock"
)

// runDMR runs app on a 2×logical world.
func runDMR(t *testing.T, logical int, app func(*mpi.Env, *Comm)) *core.Result {
	t.Helper()
	n := 2 * logical
	eng, err := core.New(core.Config{NumVPs: n})
	if err != nil {
		t.Fatal(err)
	}
	net := &netmodel.Model{
		Topo:           topology.NewFullyConnected(n),
		System:         netmodel.LinkParams{Latency: vclock.Microsecond, Bandwidth: 1e9, DetectionTimeout: 10 * vclock.Millisecond},
		OnNode:         netmodel.LinkParams{Latency: vclock.Microsecond, Bandwidth: 1e9, DetectionTimeout: 10 * vclock.Millisecond},
		EagerThreshold: 256 * 1024,
	}
	w, err := mpi.NewWorld(eng, mpi.WorldConfig{Net: net, Proc: procmodel.Paper()})
	if err != nil {
		t.Fatal(err)
	}
	res, err := w.Run(func(e *mpi.Env) {
		defer e.Finalize()
		dmr, err := WrapN(e, 2)
		if err != nil {
			t.Error(err)
			return
		}
		app(e, dmr)
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestGeometry(t *testing.T) {
	runDMR(t, 4, func(e *mpi.Env, d *Comm) {
		if d.Size() != 4 {
			t.Errorf("logical size = %d", d.Size())
		}
		wantLogical := e.Rank() % 4
		wantReplica := e.Rank() / 4
		if d.Logical() != wantLogical || d.Replica() != wantReplica {
			t.Errorf("rank %d: logical %d replica %d", e.Rank(), d.Logical(), d.Replica())
		}
	})
}

func TestWrapOddWorld(t *testing.T) {
	eng, _ := core.New(core.Config{NumVPs: 3})
	net := &netmodel.Model{
		Topo:   topology.NewFullyConnected(3),
		System: netmodel.LinkParams{Latency: vclock.Microsecond, Bandwidth: 1e9},
		OnNode: netmodel.LinkParams{Latency: vclock.Microsecond, Bandwidth: 1e9},
	}
	w, _ := mpi.NewWorld(eng, mpi.WorldConfig{Net: net, Proc: procmodel.Paper()})
	if _, err := w.Run(func(e *mpi.Env) {
		defer e.Finalize()
		if _, err := WrapN(e, 2); err == nil {
			t.Error("odd world should fail to wrap")
		}
	}); err != nil {
		t.Fatal(err)
	}
}

func TestCleanTransferNoFalsePositive(t *testing.T) {
	res := runDMR(t, 2, func(e *mpi.Env, d *Comm) {
		if d.Logical() == 0 {
			if err := d.Send(1, 0, []byte("identical")); err != nil {
				t.Errorf("send: %v", err)
			}
		} else {
			msg, err := d.Recv(0, 0)
			if err != nil {
				t.Errorf("recv: %v", err)
				return
			}
			if string(msg.Data) != "identical" {
				t.Errorf("data = %q", msg.Data)
			}
		}
	})
	if res.Completed != 4 {
		t.Fatalf("completed = %d", res.Completed)
	}
}

// encodeF64s packs vals little-endian, the layout the MPI layer uses.
func encodeF64s(vals []float64) []byte {
	buf := make([]byte, 0, 8*len(vals))
	for _, v := range vals {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	return buf
}

func TestBitFlipDetected(t *testing.T) {
	detected := make([]bool, 4) // world size
	runDMR(t, 2, func(e *mpi.Env, d *Comm) {
		if d.Logical() == 0 {
			data := []float64{1, 2, 3}
			if d.Replica() == 1 {
				// The soft error: replica 1's copy of the payload is
				// silently corrupted before the send.
				softerror.FlipFloat64(data, 1, 13)
			}
			buf := encodeF64s(data)
			if err := d.Send(1, 0, buf); err != nil {
				t.Errorf("send: %v", err)
			}
		} else {
			_, err := d.Recv(0, 0)
			var sdc *SDCError
			if errors.As(err, &sdc) {
				detected[e.Rank()] = true
				if sdc.LogicalSrc != 0 {
					t.Errorf("detected src = %d", sdc.LogicalSrc)
				}
				// Dual redundancy detects but cannot attribute: one
				// copy against one is no majority.
				if sdc.Corrupt != nil {
					t.Errorf("rank %d blamed %v, want nil at degree 2", e.Rank(), sdc.Corrupt)
				}
			} else if err != nil {
				t.Errorf("unexpected error: %v", err)
			}
		}
	})
	// Both replicas of the logical receiver detect the mismatch.
	if !detected[1] || !detected[3] {
		t.Fatalf("detection flags = %v, want both receiver replicas", detected)
	}
}

func TestSendRecvValidation(t *testing.T) {
	runDMR(t, 2, func(e *mpi.Env, d *Comm) {
		if err := d.Send(5, 0, nil); err == nil {
			t.Error("out-of-range logical dst should fail")
		}
		if _, err := d.Recv(-1, 0); err == nil {
			t.Error("out-of-range logical src should fail")
		}
	})
}

// runReplicated runs app on an r×logical world with optional injected
// process failures (world rank → failure time).
func runReplicated(t *testing.T, logical, r int, failures map[int]vclock.Time, app func(*mpi.Env, *Comm)) *core.Result {
	t.Helper()
	n := r * logical
	eng, err := core.New(core.Config{NumVPs: n})
	if err != nil {
		t.Fatal(err)
	}
	for rank, at := range failures {
		if err := eng.ScheduleFailure(rank, at); err != nil {
			t.Fatal(err)
		}
	}
	net := &netmodel.Model{
		Topo:           topology.NewFullyConnected(n),
		System:         netmodel.LinkParams{Latency: vclock.Microsecond, Bandwidth: 1e9, DetectionTimeout: 10 * vclock.Millisecond},
		OnNode:         netmodel.LinkParams{Latency: vclock.Microsecond, Bandwidth: 1e9, DetectionTimeout: 10 * vclock.Millisecond},
		EagerThreshold: 256 * 1024,
	}
	w, err := mpi.NewWorld(eng, mpi.WorldConfig{Net: net, Proc: procmodel.Paper()})
	if err != nil {
		t.Fatal(err)
	}
	res, err := w.Run(func(e *mpi.Env) {
		defer e.Finalize()
		c, err := WrapN(e, r)
		if err != nil {
			t.Error(err)
			return
		}
		app(e, c)
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestWrapNGeometry(t *testing.T) {
	runReplicated(t, 2, 3, nil, func(e *mpi.Env, c *Comm) {
		if c.Size() != 2 || c.Degree() != 3 {
			t.Errorf("size=%d degree=%d", c.Size(), c.Degree())
		}
		wantLogical := e.Rank() % 2
		wantReplica := e.Rank() / 2
		if c.Logical() != wantLogical || c.Replica() != wantReplica {
			t.Errorf("rank %d: logical %d replica %d", e.Rank(), c.Logical(), c.Replica())
		}
		if got := c.Alive(c.Logical()); got != 3 {
			t.Errorf("alive = %d", got)
		}
	})
}

func TestWrapNNotDivisible(t *testing.T) {
	runReplicated(t, 4, 1, nil, func(e *mpi.Env, c *Comm) {
		if _, err := WrapN(e, 3); err == nil {
			t.Error("4 ranks at degree 3 should fail to wrap")
		}
		if _, err := WrapN(e, 0); err == nil {
			t.Error("degree 0 should fail to wrap")
		}
	})
}

func TestTagRangeRejected(t *testing.T) {
	// The vote compares copies of one message, so a receive must name its
	// tag: AnyTag and every other negative tag are refused before any
	// message moves, on both sides.
	runDMR(t, 2, func(e *mpi.Env, d *Comm) {
		var tre *TagRangeError
		for _, tag := range []int{mpi.AnyTag, -2} {
			if err := d.Send(1, tag, nil); !errors.As(err, &tre) {
				t.Errorf("Send tag %d: got %v, want TagRangeError", tag, err)
			} else if tre.Tag != tag {
				t.Errorf("Send tag %d reported as %d", tag, tre.Tag)
			}
			if _, err := d.Recv(0, tag); !errors.As(err, &tre) {
				t.Errorf("Recv tag %d: got %v, want TagRangeError", tag, err)
			}
		}
		// Any non-negative tag is fine end to end.
		const big = 1 << 20
		if d.Logical() == 0 {
			if err := d.Send(1, big, []byte("hi")); err != nil {
				t.Errorf("send tag %d: %v", big, err)
			}
		} else {
			msg, err := d.Recv(0, big)
			if err != nil {
				t.Errorf("recv tag %d: %v", big, err)
			}
			msg.Release()
		}
	})
}

func TestMirrorCleanDelivery(t *testing.T) {
	res := runReplicated(t, 2, 2, nil, func(e *mpi.Env, c *Comm) {
		if c.Logical() == 0 {
			if err := c.Send(1, 0, []byte("mirrored")); err != nil {
				t.Errorf("send: %v", err)
			}
		} else {
			msg, err := c.Recv(0, 0)
			if err != nil {
				t.Errorf("recv: %v", err)
				return
			}
			if string(msg.Data) != "mirrored" {
				t.Errorf("data = %q", msg.Data)
			}
			msg.Release()
		}
	})
	if res.Completed != 4 {
		t.Fatalf("completed = %d", res.Completed)
	}
}

func TestMirrorTripleVotesAndCorrects(t *testing.T) {
	// At r = 3 the Mirror receiver holds all three copies: the vote both
	// attributes the corruption and hands the caller majority data.
	got := make([]string, 6)
	blamed := make([][]int, 6)
	runReplicated(t, 2, 3, nil, func(e *mpi.Env, c *Comm) {
		if c.Logical() == 0 {
			payload := []byte("good-data")
			if c.Replica() == 1 {
				payload = []byte("bad--data")
			}
			if err := c.Send(1, 0, payload); err != nil {
				t.Errorf("send: %v", err)
			}
		} else {
			msg, err := c.Recv(0, 0)
			var sdc *SDCError
			if errors.As(err, &sdc) {
				blamed[e.Rank()] = sdc.Corrupt
			} else if err != nil {
				t.Errorf("recv: %v", err)
				return
			}
			got[e.Rank()] = string(msg.Data)
			msg.Release()
		}
	})
	for _, rank := range []int{1, 3, 5} {
		if got[rank] != "good-data" {
			t.Errorf("rank %d got %q, want majority data", rank, got[rank])
		}
		if len(blamed[rank]) != 1 || blamed[rank][0] != 1 {
			t.Errorf("rank %d blamed %v, want [1]", rank, blamed[rank])
		}
	}
}

func TestVoteSeesLastByteOfLargePayload(t *testing.T) {
	// The vote compares whole copies: three 64 KiB payloads that differ
	// only in replica 2's last byte must name replica 2 and return a
	// majority copy.
	const size = 64 << 10
	ok := make([]bool, 6)
	blamed := make([][]int, 6)
	runReplicated(t, 2, 3, nil, func(e *mpi.Env, c *Comm) {
		if c.Logical() == 0 {
			payload := make([]byte, size)
			for i := range payload {
				payload[i] = byte(i)
			}
			if c.Replica() == 2 {
				payload[size-1] ^= 1
			}
			if err := c.Send(1, 0, payload); err != nil {
				t.Errorf("send: %v", err)
			}
		} else {
			msg, err := c.Recv(0, 0)
			var sdc *SDCError
			if !errors.As(err, &sdc) {
				t.Errorf("rank %d: recv err = %v, want *SDCError", e.Rank(), err)
				return
			}
			blamed[e.Rank()] = sdc.Corrupt
			ok[e.Rank()] = len(msg.Data) == size && msg.Data[size-1] == byte((size-1)%256)
			msg.Release()
		}
	})
	for _, rank := range []int{1, 3, 5} {
		if len(blamed[rank]) != 1 || blamed[rank][0] != 2 {
			t.Errorf("rank %d blamed %v, want [2]", rank, blamed[rank])
		}
		if !ok[rank] {
			t.Errorf("rank %d did not get a majority copy", rank)
		}
	}
}

func TestMirrorFailoverSurvivesReplicaDeath(t *testing.T) {
	// Logical rank 1 loses its replica-1 process (world rank 3) mid-run;
	// the Mirror protocol keeps the logical rank alive through replica 0,
	// and the whole 5-iteration ping-pong completes without a deadlock.
	const iters = 5
	failures := map[int]vclock.Time{3: vclock.Time(2500 * vclock.Microsecond)}
	res := runReplicated(t, 2, 2, failures, func(e *mpi.Env, c *Comm) {
		for i := 0; i < iters; i++ {
			e.Elapse(vclock.Millisecond)
			peer := 1 - c.Logical()
			if err := c.Send(peer, 0, []byte("ping")); err != nil {
				t.Errorf("rank %d iter %d send: %v", e.Rank(), i, err)
				return
			}
			msg, err := c.Recv(peer, 0)
			if err != nil {
				t.Errorf("rank %d iter %d recv: %v", e.Rank(), i, err)
				return
			}
			msg.Release()
		}
	})
	if res.Completed != 3 || res.Failed != 1 {
		t.Fatalf("completed=%d failed=%d, want 3/1", res.Completed, res.Failed)
	}
}

func TestMirrorAllReplicasDead(t *testing.T) {
	// Both replicas of logical rank 0 die before sending: the receiver's
	// Recv must return ReplicaFailedError once the timeouts expire, not
	// hang.
	failures := map[int]vclock.Time{
		0: vclock.Time(100 * vclock.Microsecond),
		2: vclock.Time(200 * vclock.Microsecond),
	}
	sawExhaustion := false
	res := runReplicated(t, 2, 2, failures, func(e *mpi.Env, c *Comm) {
		if c.Logical() == 0 {
			e.Elapse(vclock.Second) // die before ever sending
			return
		}
		_, err := c.Recv(0, 0)
		var rfe *ReplicaFailedError
		if errors.As(err, &rfe) {
			if rfe.Logical != 0 || rfe.Op != "recv" {
				t.Errorf("exhaustion error = %+v", rfe)
			}
			if e.Rank() == 1 {
				sawExhaustion = true
			}
		} else {
			t.Errorf("rank %d: got %v, want ReplicaFailedError", e.Rank(), err)
		}
	})
	if !sawExhaustion {
		t.Fatal("receiver never observed replica exhaustion")
	}
	if res.Failed != 2 {
		t.Fatalf("failed = %d, want 2", res.Failed)
	}
}

// FuzzVote checks voteDigests against a brute-force model over up to five
// replicas: mismatch holds exactly when two present digests differ, and
// corrupt lists, in replica order, the present replicas that do not hold
// the strict-majority digest when one exists, and is nil otherwise.
// Digests are drawn from four values so ties and majorities both occur.
func FuzzVote(f *testing.F) {
	f.Add(uint8(0), uint8(0b1), []byte{0})                 // r = 1
	f.Add(uint8(1), uint8(0b11), []byte{0, 1})             // dual split
	f.Add(uint8(2), uint8(0b111), []byte{0, 1, 0})         // r = 3, replica 1 outvoted
	f.Add(uint8(2), uint8(0b101), []byte{0, 1, 2})         // replica 1 dead, split
	f.Add(uint8(3), uint8(0b1111), []byte{0, 0, 1, 1})     // even split
	f.Add(uint8(4), uint8(0b11111), []byte{3, 3, 3, 1, 2}) // majority of five
	f.Add(uint8(4), uint8(0), []byte{0, 1, 2, 3, 0})       // nobody present
	f.Fuzz(func(t *testing.T, n, mask uint8, ds []byte) {
		r := int(n)%5 + 1
		digests := make([]uint64, r)
		present := make([]bool, r)
		for i := range digests {
			present[i] = mask>>i&1 == 1
			if i < len(ds) {
				digests[i] = uint64(ds[i]%4) * 0x9e3779b97f4a7c15
			}
		}
		corrupt, mismatch := voteDigests(digests, present)

		total := 0
		wantMismatch := false
		for i := range digests {
			if !present[i] {
				continue
			}
			total++
			for j := range digests {
				if present[j] && digests[j] != digests[i] {
					wantMismatch = true
				}
			}
		}
		var majority uint64
		hasMajority := false
		for i := range digests {
			count := 0
			for j := range digests {
				if present[i] && present[j] && digests[j] == digests[i] {
					count++
				}
			}
			if 2*count > total {
				majority, hasMajority = digests[i], true
			}
		}
		var want []int
		if hasMajority {
			for i := range digests {
				if present[i] && digests[i] != majority {
					want = append(want, i)
				}
			}
		}

		if mismatch != wantMismatch {
			t.Fatalf("digests %v present %v: mismatch = %v, want %v", digests, present, mismatch, wantMismatch)
		}
		if want == nil && corrupt != nil {
			t.Fatalf("digests %v present %v: corrupt = %v, want nil", digests, present, corrupt)
		}
		if len(corrupt) != len(want) {
			t.Fatalf("digests %v present %v: corrupt = %v, want %v", digests, present, corrupt, want)
		}
		for i, k := range corrupt {
			if k != want[i] {
				t.Fatalf("digests %v present %v: corrupt = %v, want %v", digests, present, corrupt, want)
			}
			if !present[k] || (hasMajority && digests[k] == majority) {
				t.Fatalf("digests %v present %v: corrupt lists majority holder or absent replica %d", digests, present, k)
			}
		}
	})
}
