package checkpoint

import (
	"bytes"
	"testing"

	"xsim/internal/core"
	"xsim/internal/fsmodel"
	"xsim/internal/mpi"
	"xsim/internal/netmodel"
	"xsim/internal/procmodel"
	"xsim/internal/topology"
	"xsim/internal/vclock"
)

// TestPooledPayloadRoundTrip checkpoints a received message whose Data
// lives in the MPI payload pool, releases the buffer, keeps traffic
// flowing so the pool reuses it, and then restores the checkpoint: the
// stored bytes must be the ones that were received, not whatever the
// reused buffer holds by then.
func TestPooledPayloadRoundTrip(t *testing.T) {
	eng, err := core.New(core.Config{NumVPs: 2})
	if err != nil {
		t.Fatal(err)
	}
	net := &netmodel.Model{
		Topo:   topology.NewFullyConnected(2),
		System: netmodel.LinkParams{Latency: vclock.Microsecond, Bandwidth: 1e9, DetectionTimeout: vclock.Second},
		OnNode: netmodel.LinkParams{Latency: vclock.Microsecond, Bandwidth: 1e9, DetectionTimeout: vclock.Second},
	}
	store := fsmodel.NewStore()
	w, err := mpi.NewWorld(eng, mpi.WorldConfig{Net: net, Proc: procmodel.Paper(), FSStore: store})
	if err != nil {
		t.Fatal(err)
	}
	state := bytes.Repeat([]byte{0xC3}, 96)
	clobber := bytes.Repeat([]byte{0x3C}, 96)
	if _, err := w.Run(func(e *mpi.Env) {
		c := e.World()
		if e.Rank() == 0 {
			if err := c.Send(1, 1, state); err != nil {
				t.Errorf("send state: %v", err)
			}
			m, err := c.Recv(1, 2)
			if err != nil {
				t.Errorf("recv echo: %v", err)
			} else {
				m.Release()
			}
			e.Finalize()
			return
		}
		fs, err := NewFS(e)
		if err != nil {
			t.Fatal(err)
		}
		m, err := c.Recv(0, 1)
		if err != nil {
			t.Errorf("recv state: %v", err)
			e.Finalize()
			return
		}
		if err := fs.Write("state", Meta{Iteration: 7, Rank: 1}, m.Data); err != nil {
			t.Errorf("checkpoint write: %v", err)
		}
		m.Release()
		// Reuse the released buffer for different bytes before restoring.
		if err := c.Send(0, 2, clobber); err != nil {
			t.Errorf("send echo: %v", err)
		}
		meta, got, err := fs.Read("state", 7, 1)
		if err != nil {
			t.Errorf("checkpoint read: %v", err)
		} else {
			if meta.Iteration != 7 || meta.Rank != 1 {
				t.Errorf("restored meta %+v", meta)
			}
			if !bytes.Equal(got, state) {
				t.Errorf("restored payload %x..., want %x...", got[:4], state[:4])
			}
		}
		e.Finalize()
	}); err != nil {
		t.Fatal(err)
	}
}
