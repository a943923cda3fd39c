package redundancy

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
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
	return runReplicated(t, logical, 2, nil, app)
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
	// An out-of-range logical rank is refused before any message moves.
	bad := []string{"send to 5: redundancy: destination 5 out of range [0,2)", `recv from -1: "" redundancy: source -1 out of range [0,2)`}
	scenario{logical: 2, r: 2, script: func(*Comm) []op {
		return []op{send(5, 0, nil), recv(-1, 0)}
	}}.expect(t, map[int][]string{0: bad, 1: bad, 2: bad, 3: bad})
}

// replicatedWorld builds an r×logical world on workers workers with
// optional injected process failures (world rank → failure time).
func replicatedWorld(t *testing.T, logical, r, workers int, failures map[int]vclock.Time) *mpi.World {
	t.Helper()
	n := r * logical
	eng, err := core.New(core.Config{NumVPs: n, Workers: workers, Lookahead: vclock.Microsecond})
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
	return w
}

// runReplicated runs app on an r×logical world with optional injected
// process failures (world rank → failure time).
func runReplicated(t *testing.T, logical, r int, failures map[int]vclock.Time, app func(*mpi.Env, *Comm)) *core.Result {
	t.Helper()
	res, err := replicatedWorld(t, logical, r, 1, failures).Run(func(e *mpi.Env) {
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

// TestWarmReceiveAllocatesNothingOfItsOwn: once a replicated receive has
// run at a degree, the next one keeps its copy list and the vote's scratch
// in its RecvState, so a receive whose three copies already arrived
// allocates nothing.
func TestWarmReceiveAllocatesNothingOfItsOwn(t *testing.T) {
	const rounds = 50
	payload := []byte("tripled")
	runReplicated(t, 2, 3, nil, func(e *mpi.Env, c *Comm) {
		if c.Logical() == 0 {
			for range rounds + 2 { // warm-up, AllocsPerRun's own warm-up, then the measured runs
				if err := c.Send(1, 0, payload); err != nil {
					t.Errorf("send: %v", err)
				}
			}
			return
		}
		e.Sleep(vclock.Second) // every copy arrives before the first receive
		recv := func() {
			msg, err := c.Recv(0, 0)
			if err != nil || !bytes.Equal(msg.Data, payload) {
				t.Errorf("recv: %q, %v", msg.Data, err)
			}
			msg.Release()
		}
		recv()
		if got := testing.AllocsPerRun(rounds, recv); got != 0 {
			t.Errorf("replica %d: a warm r = 3 receive allocates %v objects, want 0", c.Replica(), got)
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
	sent := []string{"send to 1: <nil>"}
	voted := func(replica int) []string {
		return []string{fmt.Sprintf(`recv from 0: "good-data" %v corrupt=[]int{1}`,
			&SDCError{LogicalSrc: 0, Tag: 0, Replica: replica})}
	}
	scenario{logical: 2, r: 3, script: func(c *Comm) []op {
		if c.Logical() == 1 {
			return []op{recv(0, 0)}
		}
		payload := []byte("good-data")
		if c.Replica() == 1 {
			payload = []byte("bad--data")
		}
		return []op{send(1, 0, payload)}
	}}.expect(t, map[int][]string{0: sent, 2: sent, 4: sent, 1: voted(0), 3: voted(1), 5: voted(2)})
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
	pingPong := func(peer int) []string {
		return slices.Repeat([]string{fmt.Sprintf("send to %d: <nil>", peer), fmt.Sprintf(`recv from %d: "ping" <nil>`, peer)}, iters)
	}
	res := scenario{logical: 2, r: 2,
		failures: map[int]vclock.Time{3: vclock.Time(2500 * vclock.Microsecond)},
		script: func(c *Comm) []op {
			var ops []op
			for range iters {
				peer := 1 - c.Logical()
				ops = append(ops, elapse(vclock.Millisecond), send(peer, 0, []byte("ping")), recv(peer, 0))
			}
			return ops
		}}.expect(t, map[int][]string{0: pingPong(1), 1: pingPong(0), 2: pingPong(1)})
	if res.Completed != 3 || res.Failed != 1 {
		t.Fatalf("completed=%d failed=%d, want 3/1", res.Completed, res.Failed)
	}
}

func TestMirrorAllReplicasDead(t *testing.T) {
	// Both replicas of logical rank 0 die before sending: the receiver's
	// Recv must return ReplicaFailedError once the timeouts expire, not
	// hang.
	exhausted := []string{fmt.Sprintf(`recv from 0: "" %v`, &ReplicaFailedError{Logical: 0, Op: "recv"})}
	res := scenario{logical: 2, r: 2,
		failures: map[int]vclock.Time{0: vclock.Time(100 * vclock.Microsecond), 2: vclock.Time(200 * vclock.Microsecond)},
		script: func(c *Comm) []op {
			if c.Logical() == 0 {
				return []op{elapse(vclock.Second)} // die before ever sending
			}
			return []op{recv(0, 0)}
		}}.expect(t, map[int][]string{0: nil, 2: nil, 1: exhausted, 3: exhausted})
	if res.Failed != 2 {
		t.Fatalf("failed = %d, want 2", res.Failed)
	}
}

func TestNoMajorityWithDeadReplica(t *testing.T) {
	// At r = 3 the source's replica 0 dies before it sends, and replicas
	// 1 and 2 send different bytes: two copies against each other are no
	// majority, so every receiver replica detects without attributing and
	// gets the first copy that arrived, replica 1's.
	sent := []string{"send to 1: <nil>"}
	split := func(replica int) []string {
		return []string{fmt.Sprintf(`recv from 0: "1" %v corrupt=[]int(nil)`,
			&SDCError{LogicalSrc: 0, Tag: 0, Replica: replica})}
	}
	scenario{logical: 2, r: 3,
		failures: map[int]vclock.Time{0: vclock.Time(100 * vclock.Microsecond)},
		script: func(c *Comm) []op {
			switch {
			case c.Logical() == 1:
				return []op{recv(0, 0)}
			case c.Replica() == 0:
				return []op{elapse(vclock.Second)} // die before ever sending
			}
			return []op{send(1, 0, []byte{byte('0' + c.Replica())})}
		}}.expect(t, map[int][]string{0: nil, 2: sent, 4: sent, 1: split(0), 3: split(1), 5: split(2)})
}

func TestCovered(t *testing.T) {
	for _, tc := range []struct {
		name string
		n, r int
		ok   []int // world ranks for which ok holds
		want bool
		asks int
	}{
		{"r=1 all ranks", 4, 1, []int{0, 1, 2, 3}, true, 4},
		{"r=1 one rank missing", 4, 1, []int{0, 1, 3}, false, 3},
		{"every replica of logical 1 fails", 3, 3, []int{0, 2, 3, 5, 6, 8}, false, 4},
		{"last replica only", 2, 3, []int{4, 5}, true, 6},
		{"mixed replicas", 2, 2, []int{1, 2}, true, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			asked := make(map[int]bool)
			got := Covered(tc.n, tc.r, func(rank int) bool {
				if rank < 0 || rank >= tc.n*tc.r || asked[rank] {
					t.Errorf("asked about rank %d (asked before: %v)", rank, asked[rank])
				}
				asked[rank] = true
				return slices.Contains(tc.ok, rank)
			})
			if got != tc.want || len(asked) != tc.asks {
				t.Errorf("Covered = %v after %d ranks, want %v after %d", got, len(asked), tc.want, tc.asks)
			}
		})
	}
}

// FuzzVote checks vote against a brute-force model over one to five
// copies: mismatch holds exactly when two copies differ; when a strict
// majority exists, chosen is a majority copy and outvoted lists, in
// ascending order, the copies that differ from it; otherwise chosen is 0
// and outvoted is nil. Copies are drawn from four contents, the empty one
// among them, so ties and majorities both occur.
func FuzzVote(f *testing.F) {
	f.Add(uint8(0), []byte{0})             // one copy
	f.Add(uint8(1), []byte{0, 1})          // dual split
	f.Add(uint8(2), []byte{0, 1, 0})       // copy 1 outvoted
	f.Add(uint8(2), []byte{1, 0, 0})       // copy 0 outvoted
	f.Add(uint8(2), []byte{0, 1, 2})       // three-way split
	f.Add(uint8(3), []byte{0, 0, 1, 1})    // even split
	f.Add(uint8(3), []byte{0, 1, 1, 2})    // no majority, largest group not first
	f.Add(uint8(4), []byte{3, 3, 3, 1, 2}) // majority of five
	f.Fuzz(func(t *testing.T, n uint8, ds []byte) {
		copies := make([][]byte, int(n)%5+1)
		for i := range copies {
			v := byte(0)
			if i < len(ds) {
				v = ds[i] % 4
			}
			copies[i] = bytes.Repeat([]byte{'a' + v}, int(v))
		}
		chosen, outvoted, mismatch := vote(copies, make([]int, 2*len(copies)))

		wantMismatch := false
		majority := -1
		for i := range copies {
			count := 0
			for j := range copies {
				if bytes.Equal(copies[i], copies[j]) {
					count++
				} else {
					wantMismatch = true
				}
			}
			if 2*count > len(copies) {
				majority = i
			}
		}
		var want []int
		if majority >= 0 {
			for i := range copies {
				if !bytes.Equal(copies[i], copies[majority]) {
					want = append(want, i)
				}
			}
		}

		if mismatch != wantMismatch {
			t.Fatalf("copies %q: mismatch = %v, want %v", copies, mismatch, wantMismatch)
		}
		if (want == nil) != (outvoted == nil) || !slices.Equal(outvoted, want) {
			t.Fatalf("copies %q: outvoted = %v, want %v", copies, outvoted, want)
		}
		if majority < 0 && chosen != 0 {
			t.Fatalf("copies %q: chosen = %d without a majority, want 0", copies, chosen)
		}
		if majority >= 0 && (chosen < 0 || chosen >= len(copies) || !bytes.Equal(copies[chosen], copies[majority])) {
			t.Fatalf("copies %q: chosen = %d, not a majority copy", copies, chosen)
		}
	})
}
