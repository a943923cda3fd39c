package mpi

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"xsim/internal/check"
	"xsim/internal/core"
	"xsim/internal/netmodel"
	"xsim/internal/procmodel"
	"xsim/internal/topology"
	"xsim/internal/vclock"
)

// slowNet is testNet with a 1 MB/s link and a 100 µs detection timeout:
// a rendezvous payload of a few KiB is in flight for milliseconds, long
// enough for a failure and its detection timeout to land before it does.
func slowNet(n int) *netmodel.Model {
	lp := netmodel.LinkParams{Latency: vclock.Microsecond, Bandwidth: 1e6, DetectionTimeout: 100 * vclock.Microsecond}
	return &netmodel.Model{Topo: topology.NewFullyConnected(n), System: lp, OnNode: lp, EagerThreshold: 1024}
}

// TestBoxesConservedAcrossPartitions sends data-carrying eager and
// rendezvous messages between partitions (rank r and r+4 are in different
// partitions at Workers 2 and 4) down every path that releases a payload
// box, with Validate on, so that the run-end sweep checks every box table
// holds no live slot and no slot freed twice:
//
//   - 0 → 4: an eager message that arrives unexpected and is kept as its
//     queue entry, a rendezvous delivery, and an eager message matched on
//     arrival;
//   - 2 → 6: eager messages queued unexpected at a rank that dies holding
//     them (drainUnexpected), and one more that reaches it dead;
//   - 1 → 5: a rendezvous delivery that reaches a receiver that died after
//     its clear-to-send left;
//   - 3 → 7: a rendezvous delivery whose sender died after sending it, so
//     that the receiver's request completed by the detection timeout
//     before the payload arrived.
//
// Run it under -race: the receivers in another partition give their boxes
// back while the owner partition takes new ones.
func TestBoxesConservedAcrossPartitions(t *testing.T) {
	const n = 8
	small, big := pattern(64, 1), pattern(4096, 2)
	for _, workers := range []int{2, 4} {
		eng, err := core.New(core.Config{NumVPs: n, Workers: workers, Lookahead: vclock.Microsecond, Validate: true})
		if err != nil {
			t.Fatal(err)
		}
		w, err := NewWorld(eng, WorldConfig{Net: slowNet(n), Proc: procmodel.Paper()})
		if err != nil {
			t.Fatal(err)
		}
		for r, at := range map[int]vclock.Time{
			6: vclock.Time(vclock.Millisecond),
			5: vclock.Time(100 * vclock.Microsecond),
			3: vclock.Time(100 * vclock.Microsecond),
		} {
			if err := eng.ScheduleFailure(r, at); err != nil {
				t.Fatal(err)
			}
		}
		expect := func(e *Env, m *Message, err error, want []byte) {
			if err != nil {
				t.Errorf("workers=%d rank %d: %v", workers, e.Rank(), err)
			} else if !bytes.Equal(m.Data, want) {
				t.Errorf("workers=%d rank %d: received %d bytes, want %d of the sent pattern", workers, e.Rank(), len(m.Data), len(want))
			}
		}
		res, err := w.Run(func(e *Env) {
			c := e.World()
			c.SetErrorHandler(ErrorsReturn)
			switch e.Rank() {
			case 0:
				for _, msg := range []struct {
					tag  int
					data []byte
				}{{1, small}, {2, big}} {
					if err := c.Send(4, msg.tag, msg.data); err != nil {
						t.Errorf("workers=%d: send tag %d: %v", workers, msg.tag, err)
					}
				}
				e.Sleep(10 * vclock.Millisecond)
				if err := c.Send(4, 3, small); err != nil {
					t.Errorf("workers=%d: send tag 3: %v", workers, err)
				}
			case 4:
				e.Sleep(vclock.Millisecond) // tag 1 arrives unexpected
				m, err := c.Recv(0, 1)
				expect(e, m, err, small)
				m, err = c.Recv(0, 2)
				expect(e, m, err, big)
				m, err = c.Recv(0, 3) // posted before tag 3 leaves rank 0
				expect(e, m, err, small)
			case 2:
				for i := 0; i < 2; i++ {
					if err := c.Send(6, 1, small); err != nil {
						t.Errorf("workers=%d: send to 6: %v", workers, err)
					}
				}
				e.Sleep(10 * vclock.Millisecond)
				if err := c.Send(6, 1, small); err != nil {
					t.Errorf("workers=%d: send to dead 6: %v", workers, err)
				}
			case 6:
				e.Sleep(5 * vclock.Millisecond) // fails at 1 ms, both messages queued
			case 1, 3:
				req, err := c.Isend(e.Rank()+4, 1, big)
				if err != nil {
					t.Fatal(err)
				}
				if e.Rank() == 1 {
					c.Wait(req)
				} else {
					// Blocked, not ready to resume when its send
					// completes: rank 3 fails at 100 µs, with its
					// payload on the wire.
					e.Sleep(10 * vclock.Millisecond)
				}
			case 5, 7:
				req, err := c.Irecv(e.Rank()-4, 1)
				if err != nil {
					t.Fatal(err)
				}
				_, err = c.Wait(req) // rank 5 fails here
				var pf *ProcFailedError
				if !errors.As(err, &pf) || pf.Rank != 3 {
					t.Errorf("workers=%d rank %d: wait returned %v, want rank 3's failure", workers, e.Rank(), err)
				}
				e.Sleep(10 * vclock.Millisecond) // alive when the payload lands
			}
			e.Finalize()
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for r, want := range []core.DeathReason{
			core.DeathCompleted, core.DeathCompleted, core.DeathCompleted, core.DeathFailed,
			core.DeathCompleted, core.DeathFailed, core.DeathFailed, core.DeathCompleted,
		} {
			if res.Deaths[r] != want {
				t.Errorf("workers=%d: rank %d ended %v, want %v", workers, r, res.Deaths[r], want)
			}
		}
		if m := w.Metrics(); m.RendezvousMsgs != 3 || m.EagerMsgs != 5 {
			t.Errorf("workers=%d: %d eager and %d rendezvous messages sent, want 5 and 3", workers, m.EagerMsgs, m.RendezvousMsgs)
		}
	}
}

// TestBoxSweepCatchesLostAndDoubleReleasedHandles checks that the run-end
// sweep reports a box nobody released and a slot freed twice, and that a
// handle issued by one partition is released by a receiver in another.
func TestBoxSweepCatchesLostAndDoubleReleasedHandles(t *testing.T) {
	_, w := newWorldT(t, 4, 4, nil)
	if _, err := w.Run(func(e *Env) {
		if e.Rank() == 2 {
			w.box(e.dp, []byte{7}) // lost: no event carries it
		}
		e.Finalize()
	}); !isBoxViolation(err, "1 live payload boxes") {
		t.Fatalf("run with a lost box returned %v, want a box-conservation violation", err)
	}
	owner, other := w.pools[2], w.pools[3]
	h := w.box(owner, []byte{9})
	if b := w.unbox(other, h); !bytes.Equal(b, []byte{9}) {
		t.Fatalf("unbox returned %v, want the boxed [9]", b)
	}
	var lost uint32 = 1<<w.boxShift | owner.part // the run's lost box
	if b := w.unbox(owner, lost); !bytes.Equal(b, []byte{7}) {
		t.Fatalf("unbox of the lost handle returned %v, want [7]", b)
	}
	if err := w.checkBoxes(0); err != nil {
		t.Fatalf("every box released, the sweep reports %v", err)
	}
	owner.boxes.free = append(owner.boxes.free, h>>w.boxShift)
	if err := w.checkBoxes(0); !isBoxViolation(err, "twice") {
		t.Fatalf("with a slot freed twice the sweep returned %v, want a box-conservation violation", err)
	}
}

// TestBoxTableOwnerAndReceiverConcurrently has the owner partition take
// boxes, growing its table across several chunks and reusing the slots
// given back, while a receiver in another partition resolves and releases
// the handles it is sent, as two partitions do inside one window. Run it
// under -race.
func TestBoxTableOwnerAndReceiverConcurrently(t *testing.T) {
	_, w := newWorldT(t, 2, 2, nil)
	owner, other := w.pools[0], w.pools[1]
	type sent struct {
		h uint32
		b byte
	}
	const boxes = 8 << boxChunkShift
	// One slot per box: the owner never waits for the receiver, so its
	// table grows past a chunk while the receiver resolves handles.
	handles := make(chan sent, boxes)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for m := range handles {
			if b := w.unbox(other, m.h); len(b) != 1 || b[0] != m.b {
				t.Errorf("handle %#x resolved to %v, want [%d]", m.h, b, m.b)
			}
		}
	}()
	for i := 0; i < boxes; i++ {
		handles <- sent{w.box(owner, []byte{byte(i)}), byte(i)}
	}
	close(handles)
	<-done
	if err := w.checkBoxes(0); err != nil {
		t.Fatal(err)
	}
}

func isBoxViolation(err error, detail string) bool {
	var v *check.Violation
	return errors.As(err, &v) && v.Invariant == "box-conservation" && strings.Contains(v.Detail, detail)
}
