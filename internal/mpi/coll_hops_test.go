package mpi

import (
	"fmt"
	"os"
	"strings"
	"testing"
	"unsafe"

	"xsim/internal/core"
	"xsim/internal/trace"
	"xsim/internal/vclock"
)

// hopsGoldenPath holds, per collective × algorithm × size × root, every
// traced event (time, kind, rank, peer, tag, size, flags), each rank's
// clock when the collective returned and what it returned — recorded at
// the last commit whose collectives were written out hop by hop, before
// they became rows of fans. The random differentials pin digests of whole
// workloads; this pins message order, tags and per-hop virtual times for
// odd sizes and non-zero roots under both algorithms. A change that is
// meant to alter a hop replaces the blocks the failing test prints.
const hopsGoldenPath = "testdata/collective_hops.golden"

// collectiveStateBytes is unsafe.Sizeof(CollectiveState{}) at that same
// commit. The state is embedded in every heatRunner and counts against
// the retained-bytes/vp gates, so it may shrink but not grow.
const collectiveStateBytes = 328

func TestCollectiveStateDoesNotGrow(t *testing.T) {
	if got := unsafe.Sizeof(CollectiveState{}); got > collectiveStateBytes {
		t.Errorf("CollectiveState is %d bytes, pinned at %d", got, collectiveStateBytes)
	}
}

// hopContrib is rank's reduction operand; the tenths make the sum depend
// on the fold order in its last bits.
func hopContrib(rank, n int) []float64 {
	return []float64{0.1 * float64(rank+1), float64(n - rank)}
}

func hopParts(rank, n, k int) [][]byte {
	parts := make([][]byte, n)
	for i := range parts {
		parts[i] = stepPat(rank*n+i, k)
	}
	return parts
}

// hopColls lists every collective once per driver: the closure call and
// the Begin/result pair a Prog uses.
var hopColls = []struct {
	name    string
	rooted  bool
	closure func(c *Comm, rank, n, root int) (any, error)
	begin   func(cs *CollectiveState, rank, n, root int)
	result  func(cs *CollectiveState) any
}{
	{"barrier", false,
		func(c *Comm, rank, n, root int) (any, error) { return nil, c.Barrier() },
		func(cs *CollectiveState, rank, n, root int) { cs.BeginBarrier() },
		func(cs *CollectiveState) any { return nil }},
	{"bcast", true,
		func(c *Comm, rank, n, root int) (any, error) { return c.Bcast(root, hopBcastData(rank, root)) },
		func(cs *CollectiveState, rank, n, root int) { cs.BeginBcast(root, hopBcastData(rank, root)) },
		func(cs *CollectiveState) any { return cs.Bytes() }},
	{"reduce", true,
		func(c *Comm, rank, n, root int) (any, error) { return c.Reduce(root, hopContrib(rank, n), OpSum) },
		func(cs *CollectiveState, rank, n, root int) { cs.BeginReduce(root, hopContrib(rank, n), OpSum) },
		func(cs *CollectiveState) any { return cs.Floats() }},
	{"allreduce", false,
		func(c *Comm, rank, n, root int) (any, error) { return c.Allreduce(hopContrib(rank, n), OpSum) },
		func(cs *CollectiveState, rank, n, root int) { cs.BeginAllreduce(hopContrib(rank, n), OpSum) },
		func(cs *CollectiveState) any { return cs.Floats() }},
	{"gather", true,
		func(c *Comm, rank, n, root int) (any, error) { return c.Gather(root, stepPat(rank, 2)) },
		func(cs *CollectiveState, rank, n, root int) { cs.BeginGather(root, stepPat(rank, 2)) },
		func(cs *CollectiveState) any { return cs.Parts() }},
	{"scatter", true,
		func(c *Comm, rank, n, root int) (any, error) { return c.Scatter(root, hopScatterParts(rank, n, root)) },
		func(cs *CollectiveState, rank, n, root int) { cs.BeginScatter(root, hopScatterParts(rank, n, root)) },
		func(cs *CollectiveState) any { return cs.Bytes() }},
	{"allgather", false,
		func(c *Comm, rank, n, root int) (any, error) { return c.Allgather(stepPat(rank, 5)) },
		func(cs *CollectiveState, rank, n, root int) { cs.BeginAllgather(stepPat(rank, 5)) },
		func(cs *CollectiveState) any { return cs.Parts() }},
	{"alltoall", false,
		func(c *Comm, rank, n, root int) (any, error) { return c.Alltoall(hopParts(rank, n, 4)) },
		func(cs *CollectiveState, rank, n, root int) { cs.BeginAlltoall(hopParts(rank, n, 4)) },
		func(cs *CollectiveState) any { return cs.Parts() }},
}

// hopBcastData and hopScatterParts give the root its operand and every
// other rank nil, as the API documents.
func hopBcastData(rank, root int) []byte {
	if rank != root {
		return nil
	}
	return stepPat(root, 1)
}

func hopScatterParts(rank, n, root int) [][]byte {
	if rank != root {
		return nil
	}
	return hopParts(root, n, 3)
}

// hopResult renders a collective's return value, keeping nil apart from
// empty.
func hopResult(v any) string {
	switch v := v.(type) {
	case []byte:
		if v == nil {
			return "nil"
		}
		return fmt.Sprintf("b:%x", v)
	case []float64:
		if v == nil {
			return "nil"
		}
		return fmt.Sprintf("f:%v", v)
	case [][]byte:
		if v == nil {
			return "nil"
		}
		parts := make([]string, len(v))
		for i, p := range v {
			parts[i] = hopResult(p)
		}
		return "[" + strings.Join(parts, " ") + "]"
	default:
		return "-"
	}
}

// hopCollProg runs one collective through CollectiveStep and records the
// clock and result at completion.
type hopCollProg struct {
	begin func(cs *CollectiveState)
	done  func(e *Env, cs *CollectiveState, err error)
	armed bool
	cs    CollectiveState
}

func (p *hopCollProg) Step(e *Env, wake any) (any, bool) {
	if !p.armed {
		p.armed = true
		p.begin(&p.cs)
	}
	done, park, err := e.World().CollectiveStep(&p.cs)
	if !done {
		return park, false
	}
	p.done(e, &p.cs, err)
	e.Finalize()
	return nil, true
}

// TestCollectiveHopsMatchGolden replays every golden block through the
// closure methods and through CollectiveStep in a Prog.
func TestCollectiveHopsMatchGolden(t *testing.T) {
	data, err := os.ReadFile(hopsGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, block := range strings.Split(string(data), "== ")[1:] {
		name, body, _ := strings.Cut(block, "\n")
		want[name] = body
	}
	cases := 0
	for _, coll := range hopColls {
		for _, algo := range []CollectiveAlgo{Linear, Tree} {
			for _, n := range []int{1, 2, 3, 5, 8} {
				roots := []int{0}
				if coll.rooted && n > 1 {
					roots = append(roots, n-1)
				}
				for _, root := range roots {
					name := fmt.Sprintf("%s %s n=%d root=%d", coll.name, algo, n, root)
					cases++
					for _, mode := range []string{"closure", "prog"} {
						buf := trace.New(0)
						// An odd call overhead makes every per-fan charge
						// (and a missing or doubled one) visible in the
						// clocks.
						opt := func(_ *core.Config, c *WorldConfig) {
							c.Collectives = algo
							c.Tracer = buf
							c.CallOverhead = 3 * vclock.Microsecond
						}
						finish := make([]string, n)
						record := func(e *Env, v any, err error) {
							if err != nil {
								t.Errorf("%s (%s) rank %d: %v", name, mode, e.Rank(), err)
							}
							finish[e.Rank()] = fmt.Sprintf("rank %d clock=%d result=%s\n", e.Rank(), e.Now(), hopResult(v))
						}
						if mode == "closure" {
							_, err = runWorldErr(t, n, 1, nil, func(e *Env) {
								v, err := coll.closure(e.World(), e.Rank(), n, root)
								record(e, v, err)
							}, opt)
						} else {
							_, err = runProgWorldErr(t, n, 1, nil, func(rank int) Prog {
								return &hopCollProg{
									begin: func(cs *CollectiveState) { coll.begin(cs, rank, n, root) },
									done:  func(e *Env, cs *CollectiveState, err error) { record(e, coll.result(cs), err) },
								}
							}, opt)
						}
						if err != nil {
							t.Fatalf("%s (%s): %v", name, mode, err)
						}
						var got strings.Builder
						for _, ev := range buf.Events() {
							fmt.Fprintf(&got, "%d %s rank=%d peer=%d tag=%d size=%d flags=%d\n", ev.At, ev.Kind, ev.Rank, ev.Peer, ev.Tag, ev.Size, ev.Flags)
						}
						for _, line := range finish {
							got.WriteString(line)
						}
						if got.String() != want[name] {
							t.Errorf("%s (%s) diverges from %s; got:\n== %s\n%s", name, mode, hopsGoldenPath, name, got.String())
						}
					}
				}
			}
		}
	}
	if len(want) != cases {
		t.Errorf("%s has %d blocks, the test ran %d cases", hopsGoldenPath, len(want), cases)
	}
}
