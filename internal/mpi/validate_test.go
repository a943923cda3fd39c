package mpi

import (
	"errors"
	"strings"
	"testing"

	"xsim/internal/check"
	"xsim/internal/core"
	"xsim/internal/vclock"
)

func withValidate() worldOpt { return func(c *core.Config, _ *WorldConfig) { c.Validate = true } }

// Finalize with a receive still pending is an application protocol bug;
// under Validate it fails the run with a dump naming the leaked request.
func TestValidateFinalizePendingReceive(t *testing.T) {
	_, err := runWorldErr(t, 2, 1, nil, func(e *Env) {
		if e.Rank() == 0 {
			if _, err := e.World().Irecv(1, 7); err != nil {
				t.Error(err)
			}
		}
	}, withValidate())
	if err == nil {
		t.Fatal("finalizing with a pending receive should fail under Validate")
	}
	for _, want := range []string{"invariant violation [finalize-pending]", "rank 0", "recv"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}

// Without Validate the same leak passes silently (checking is opt-in and
// must not change semantics).
func TestFinalizePendingReceiveWithoutValidate(t *testing.T) {
	runWorld(t, 2, 1, func(e *Env) {
		if e.Rank() == 0 {
			if _, err := e.World().Irecv(1, 7); err != nil {
				t.Error(err)
			}
		}
	})
}

// Corrupting the posted-receive index from inside (a stand-in for a future
// matching bug) is caught by the next index sweep.
func TestValidateDetectsPostedIndexCorruption(t *testing.T) {
	_, err := runWorldErr(t, 2, 1, nil, func(e *Env) {
		if e.Rank() != 0 {
			return
		}
		c := e.World()
		r, err := c.Irecv(AnySource, 3)
		if err != nil {
			t.Error(err)
			return
		}
		// Simulate a bug: the request completes but stays filed as posted.
		r.set(reqDone)
		if _, err := c.Irecv(AnySource, 4); err != nil { // triggers the sweep
			t.Error(err)
		}
	}, withValidate())
	if err == nil {
		t.Fatal("corrupted posted index should fail the run under Validate")
	}
	if !strings.Contains(err.Error(), "invariant violation [posted-index]") {
		t.Errorf("error %q does not mention the posted-index invariant", err)
	}
}

// unlinkPending trusts a request's pending bit instead of searching the
// pending list for it; a bit that disagrees with the list (a stand-in for a
// future bookkeeping bug) is caught by the next index sweep.
func TestValidateDetectsPendingBitMismatch(t *testing.T) {
	_, err := runWorldErr(t, 2, 1, nil, func(e *Env) {
		if e.Rank() != 0 {
			return
		}
		c := e.World()
		r, err := c.Isend(1, 3, make([]byte, 4096)) // rendezvous: pending until the clear-to-send
		if err != nil {
			t.Error(err)
			return
		}
		r.clear(reqPending)                      // still linked: completion would leave it in the list
		if _, err := c.Irecv(1, 4); err != nil { // triggers the sweep
			t.Error(err)
		}
	}, withValidate())
	if err == nil || !strings.Contains(err.Error(), "without its pending bit") {
		t.Fatalf("err = %v, want a pending-index violation naming the bit", err)
	}
}

// A posted list whose links disagree with its order (a stand-in for a
// future unlink bug) is caught by the next index sweep: a back link that
// skips its predecessor, and a tail left on an element that is no longer
// last.
func TestValidateDetectsBrokenPostedLinks(t *testing.T) {
	for _, tc := range []struct {
		name, want string
		corrupt    func(e *Env, first, second *Request)
	}{
		{"back link", "broken back link", func(e *Env, first, second *Request) { second.link.prev = nil }},
		{"stale tail", "tail is not the last element", func(e *Env, first, second *Request) { e.postedWild.tail = &first.link }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := runWorldErr(t, 2, 1, nil, func(e *Env) {
				if e.Rank() != 0 {
					return
				}
				c := e.World()
				first, err := c.Irecv(AnySource, 3)
				if err != nil {
					t.Error(err)
					return
				}
				second, err := c.Irecv(AnySource, 4)
				if err != nil {
					t.Error(err)
					return
				}
				tc.corrupt(e, first, second)
				if _, err := c.Irecv(1, 5); err != nil { // triggers the sweep
					t.Error(err)
				}
			}, withValidate())
			if err == nil || !strings.Contains(err.Error(), "invariant violation [posted-index]") || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want a posted-index violation saying %q", err, tc.want)
			}
		})
	}
}

// A violation raised in an event handler is the run's error, with the
// partial result, at every worker count; it never escapes the run as a
// panic. Rank 3 sets the pending bit of its second posted receive (a
// receive waiting for a match is never pending), and the check after the
// envelope that matches its first one (in the handler, on rank 3's
// partition) finds it.
func TestHandlerViolationIsRunError(t *testing.T) {
	for _, workers := range []int{1, 2, 3} {
		res, err := runWorldErr(t, 4, workers, nil, func(e *Env) {
			c := e.World()
			switch e.Rank() {
			case 0:
				e.Elapse(vclock.Millisecond)
				if err := c.Send(3, 1, []byte{1}); err != nil {
					t.Error(err)
				}
			case 3:
				first, err := c.Irecv(0, 1)
				if err != nil {
					t.Error(err)
					return
				}
				second, err := c.Irecv(0, 2)
				if err != nil {
					t.Error(err)
					return
				}
				second.set(reqPending)
				c.Waitall([]*Request{first, second})
			}
			e.Finalize()
		}, withValidate())
		var v *check.Violation
		if !errors.As(err, &v) {
			t.Fatalf("workers=%d: err = %v, want a violation", workers, err)
		}
		if v.Invariant != "posted-index" || v.Rank != 3 || v.Event != "envelope-match" {
			t.Errorf("workers=%d: violation = %+v, want rank 3's posted-index violation at envelope-match", workers, v)
		}
		if res == nil || res.Deadlocked {
			t.Errorf("workers=%d: result %+v, want the partial result and no deadlock", workers, res)
		}
	}
}
