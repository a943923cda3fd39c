package mpi

import (
	"cmp"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"xsim/internal/check"
	"xsim/internal/vclock"
)

// TestPostedIdxTiers files queues for more sources than the inline array
// and the linear block hold and checks the posted index tier by tier: the
// first two keys inline, the next six in the one spill block (a 3-D
// stencil's six sources never build a map), the rest in their
// communicator's map; every queue keeps the address it was created at,
// and each visits all of them once.
func TestPostedIdxTiers(t *testing.T) {
	var ix srcIndex[Request]
	const n = srcInline + srcLinear + 4
	qs := make([]*list[Request], n)
	for i := range qs {
		k := keyOf(i%2, 100+i)
		if ix.get(k) != nil {
			t.Fatalf("key %d found before it was added", i)
		}
		qs[i] = ix.getOrAdd(k, 1<<20, nil)
		if i == srcInline+srcLinear-1 && (ix.spill == nil || ix.spill.comms != nil) {
			t.Fatalf("%d keys: spill block %v, communicator tier %v; want a block and no further tier",
				i+1, ix.spill != nil, ix.spill != nil && ix.spill.comms != nil)
		}
	}
	if ix.n != srcInline || ix.spill.n != srcLinear || len(*ix.spill.comms) != 2 {
		t.Fatalf("tiers hold %d and %d keys and %d communicators", ix.n, ix.spill.n, len(*ix.spill.comms))
	}
	for _, cq := range *ix.spill.comms {
		if len(cq.byMap) != 2 || cq.dense != nil {
			t.Errorf("communicator %d: %d map queues, dense table %v; want 2 and none", cq.comm, len(cq.byMap), cq.dense != nil)
		}
	}
	seen := map[*list[Request]]matchKey{}
	ix.each(func(k matchKey, q *list[Request]) { seen[q] = k })
	for i, q := range qs {
		k := keyOf(i%2, 100+i)
		if ix.get(k) != q || ix.getOrAdd(k, 1<<20, nil) != q {
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

// TestSrcIndexGoesDense fills one communicator's queues from source after
// source and checks the move to a dense table: it happens once the map
// holds mapQueueBytes' worth of the table, it keeps every queue's
// requests in order, it reports every moved queue at its new address, and
// afterwards every member's slot is a queue and no map is left. The
// tree-collective shape at a million ranks, 20 sources on a
// 2^20-member communicator, stays in the map.
func TestSrcIndexGoesDense(t *testing.T) {
	const n = 64
	var ix srcIndex[Request]
	reqs := make([]Request, n)
	movedAt := map[*list[Request]]bool{}
	moved := func(q *list[Request]) { movedAt[q] = true; repointPosted(q) }
	wantDenseAt := srcInline + srcLinear + (n*16+mapQueueBytes-1)/mapQueueBytes
	for src := 0; src < n; src++ {
		q := ix.getOrAdd(keyOf(0, src), n, moved)
		q.push(&reqs[src], reqAt)
		reqs[src].postQ = q
		dense := ix.spill != nil && ix.spill.comms != nil && (*ix.spill.comms)[0].dense != nil
		if want := src+1 >= wantDenseAt; dense != want {
			t.Fatalf("%d sources: dense table %v, want %v", src+1, dense, want)
		}
	}
	cq := (*ix.spill.comms)[0]
	if cq.byMap != nil {
		t.Errorf("a map of %d queues is left beside the dense table", len(cq.byMap))
	}
	if want := wantDenseAt - srcInline - srcLinear; len(movedAt) != want {
		t.Errorf("%d queues reported moved, want the %d the map held, the newest among them", len(movedAt), want)
	}
	for src := range reqs {
		r := &reqs[src]
		q := ix.get(keyOf(0, src))
		if q == nil || q.head != r || r.postQ != q {
			t.Errorf("source %d: its request is not the head of its queue, or postQ is stale", src)
		}
		if src >= srcInline+srcLinear && q != &cq.dense[src] {
			t.Errorf("source %d: lookup misses its dense slot", src)
		}
	}

	var wide srcIndex[envelope]
	for src := 0; src < 20; src++ {
		wide.getOrAdd(keyOf(0, src<<15), 1<<20, nil)
	}
	if cq := (*wide.spill.comms)[0]; cq.dense != nil || len(cq.byMap) != 20-srcInline-srcLinear {
		t.Errorf("20 sources of 2^20: dense table %v, %d map queues", cq.dense != nil, len(cq.byMap))
	}
}

// srcModel is what a rank's two matching indexes must hold, as plain
// slices: per (comm, src) the posted receives in post order and the queued
// envelopes in arrival order, the wildcard receives in post order, and per
// communicator the queued envelopes in arrival order.
type srcModel struct {
	posted   map[matchKey][]*Request
	wild     []*Request
	unexp    map[matchKey][]*envelope
	arrivals map[int][]*envelope
}

// maxSrcOps bounds an operation stream: enough to take a communicator
// past its move to a dense table and drain it again.
const maxSrcOps = 500

// srcModelComms are the communicators the model runs on, of three sizes:
// 5 members (dense after two map queues, once other keys fill the block),
// 40 (a stream of a few hundred operations takes it past its move) and
// 200 (a stream rarely does).
var srcModelComms = [...]*Comm{{id: 0, n: 5}, {id: 3, n: 40}, {id: 7, n: 200}}

// runSrcIndexOps applies three-byte operations to one rank's posted index
// and unexpected queue and, after each, checks both against srcModel: every
// queue in FIFO order under its key, every posted receive's postQ on its
// queue, every arrival list in arrival order, and nothing else filed. The
// first byte picks the operation, the second the communicator and tag, the
// third the source. Communicator 3 goes dense once 24 of its 40 sources
// have queues. It returns how many dense tables the two indexes built.
// Each check walks every queue, so a stream is cut at maxSrcOps.
func runSrcIndexOps(t *testing.T, ops []byte) (dense int) {
	ops = ops[:min(len(ops), 3*maxSrcOps)]
	var e Env
	e.cold = new(procCold)
	m := srcModel{posted: map[matchKey][]*Request{}, unexp: map[matchKey][]*envelope{}, arrivals: map[int][]*envelope{}}
	var nextID uint64
	for i := 0; i+2 < len(ops); i += 3 {
		op, a, b := ops[i]%6, ops[i+1], ops[i+2]
		c := srcModelComms[int(a)%len(srcModelComms)]
		src, tag := int(b)%c.n, int(a/3)%3
		k := keyOf(c.id, src)
		switch op {
		case 0: // an envelope arrives unexpected
			env := &envelope{envHeader: envHeader{commID: c.id, srcCommRank: src, tag: tag}}
			e.cold.file(env, c.n)
			m.unexp[k] = append(m.unexp[k], env)
			m.arrivals[c.id] = append(m.arrivals[c.id], env)
		case 1, 2: // a receive takes the earliest match, from src or from any source
			want := tag
			if a&0x80 != 0 {
				want = AnyTag
			}
			if op == 2 {
				src = AnySource
			}
			var exp *envelope
			from := m.unexp[k]
			if src == AnySource {
				from = m.arrivals[c.id]
			}
			for _, env := range from {
				if tagMatches(want, env.tag) {
					exp = env
					break
				}
			}
			got := e.cold.peek(c.id, src, want)
			if got != exp {
				t.Fatalf("op %d: peek(comm %d, src %d, tag %d) = %p, want %p", i/3, c.id, src, want, got, exp)
			}
			if got != nil {
				e.cold.unfile(got)
				m.dropEnvelope(got)
			}
		case 3: // an envelope leaves from the middle of its lists (a tag-selective receive passes earlier ones)
			if q := m.arrivals[c.id]; len(q) > 0 {
				env := q[int(b)%len(q)]
				e.cold.unfile(env)
				m.dropEnvelope(env)
			}
		case 4: // a receive is posted, from src or from any source
			nextID++
			r := &Request{id: nextID, kind: recvReq, comm: c, src: int32(src), tag: int32(tag)}
			if a&0x80 != 0 {
				r.tag = AnyTag
			}
			if a&0x40 != 0 {
				r.src = AnySource
				e.addPosted(r, AnySource)
				m.wild = append(m.wild, r)
			} else {
				e.addPosted(r, src)
				m.posted[k] = append(m.posted[k], r)
			}
		case 5: // a message arrives and takes a posted receive, or a posted receive is cancelled
			if a&0x80 != 0 {
				var all []*Request
				for _, q := range m.posted {
					all = append(all, q...)
				}
				if all = append(all, m.wild...); len(all) > 0 {
					slices.SortFunc(all, func(x, y *Request) int { return cmp.Compare(x.id, y.id) })
					r := all[int(b)%len(all)]
					e.removePosted(r)
					m.dropRequest(r)
				}
				break
			}
			var exp *Request
			for _, r := range m.posted[k] {
				if tagMatches(int(r.tag), tag) {
					exp = r
					break
				}
			}
			for _, r := range m.wild {
				if r.comm.id == c.id && tagMatches(int(r.tag), tag) {
					if exp == nil || r.id < exp.id {
						exp = r
					}
					break
				}
			}
			got := e.takePosted(&envHeader{commID: c.id, srcCommRank: src, tag: tag})
			if got != exp {
				t.Fatalf("op %d: message (comm %d, src %d, tag %d) took request %v, want %v", i/3, c.id, src, tag, reqID(got), reqID(exp))
			}
			if got != nil {
				m.dropRequest(got)
			}
		}
		m.check(t, i/3, &e)
	}
	_, pt := e.posted.farTier()
	_, ut := e.cold.unexp.farTier()
	return pt + ut
}

// farTier counts the queues in the index's communicator maps and its
// dense tables.
func (ix *srcIndex[T]) farTier() (mapped, tables int) {
	if sp := ix.spill; sp != nil && sp.comms != nil {
		for _, cq := range *sp.comms {
			mapped += len(cq.byMap)
			tables += min(len(cq.dense), 1)
		}
	}
	return mapped, tables
}

func reqID(r *Request) any {
	if r == nil {
		return nil
	}
	return r.id
}

func (m *srcModel) dropEnvelope(env *envelope) {
	k := keyOf(env.commID, env.srcCommRank)
	m.unexp[k] = without(m.unexp[k], env)
	m.arrivals[env.commID] = without(m.arrivals[env.commID], env)
}

func (m *srcModel) dropRequest(r *Request) {
	if r.src == AnySource {
		m.wild = without(m.wild, r)
		return
	}
	k := keyOf(r.comm.id, int(r.src))
	m.posted[k] = without(m.posted[k], r)
}

func without[T comparable](xs []T, x T) []T {
	for i := range xs {
		if xs[i] == x {
			return append(xs[:i:i], xs[i+1:]...)
		}
	}
	return xs
}

// check compares both indexes with the model.
func (m *srcModel) check(t *testing.T, op int, e *Env) {
	t.Helper()
	walk := func(what string, q *list[Request], want []*Request) {
		var got []*Request
		if broken := q.walk(reqAt, func(r *Request) { got = append(got, r) }); broken != "" {
			t.Fatalf("op %d: %s: %s", op, what, broken)
		}
		if len(got) != len(want) {
			t.Fatalf("op %d: %s holds %d receives, want %d", op, what, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] || got[i].postQ != q {
				t.Fatalf("op %d: %s: receive %d is %d (postQ on its list: %v), want %d", op, what, i, got[i].id, got[i].postQ == q, want[i].id)
			}
		}
	}
	walk("wildcard list", &e.postedWild, m.wild)
	postedTotal, unexpTotal := 0, 0
	// A dense slot whose key an earlier tier holds is visited too, and
	// must stay empty.
	e.posted.each(func(k matchKey, q *list[Request]) {
		if e.posted.get(k) != q {
			walk("shadowed posted slot "+keyString(k), q, nil)
			return
		}
		walk("posted list "+keyString(k), q, m.posted[k])
		postedTotal += len(m.posted[k])
	})
	e.cold.unexp.each(func(k matchKey, q *list[envelope]) {
		i, want := 0, m.unexp[k]
		if e.cold.unexp.get(k) != q {
			want = nil
		}
		if broken := q.walk(bySrcAt, func(env *envelope) {
			if i >= len(want) || env != want[i] {
				t.Fatalf("op %d: unexpected list %s out of FIFO order at %d", op, keyString(k), i)
			}
			i++
		}); broken != "" {
			t.Fatalf("op %d: unexpected list %s: %s", op, keyString(k), broken)
		}
		if i != len(want) {
			t.Fatalf("op %d: unexpected list %s holds %d envelopes, want %d", op, keyString(k), i, len(want))
		}
		unexpTotal += i
	})
	for k, q := range m.posted {
		postedTotal -= len(q)
		if len(q) > 0 && e.posted.get(k) == nil {
			t.Fatalf("op %d: posted list %s missing", op, keyString(k))
		}
	}
	for _, q := range m.unexp {
		unexpTotal -= len(q)
	}
	if postedTotal != 0 || unexpTotal != 0 {
		t.Fatalf("op %d: the indexes hold %+d receives and %+d envelopes the model does not", op, postedTotal, unexpTotal)
	}
	for comm, want := range m.arrivals {
		q := e.cold.arrivals(comm)
		if q == nil {
			if len(want) > 0 {
				t.Fatalf("op %d: communicator %d has no arrival list", op, comm)
			}
			continue
		}
		i := 0
		if broken := q.walk(byCommAt, func(env *envelope) {
			if i >= len(want) || env != want[i] {
				t.Fatalf("op %d: arrival list of communicator %d out of order at %d", op, comm, i)
			}
			i++
		}); broken != "" || i != len(want) {
			t.Fatalf("op %d: arrival list of communicator %d holds %d envelopes, want %d %s", op, comm, i, len(want), broken)
		}
	}
}

func keyString(k matchKey) string { return fmt.Sprintf("%+v", k) }

// srcOps draws n random operations, half of them on communicator 3, so a
// few hundred take it past its move to a dense table.
func srcOps(rng *rand.Rand, n int) []byte {
	ops := make([]byte, 3*n)
	rng.Read(ops)
	for i := 1; i < len(ops); i += 3 {
		if rng.Intn(2) == 0 {
			ops[i] = ops[i] - ops[i]%3 + 1
		}
	}
	return ops
}

// TestSrcIndexMatchesModel runs long random operation streams, each of
// which moves at least one communicator's queues to a dense table, against
// the model.
func TestSrcIndexMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	dense := 0
	for trial := 0; trial < 200; trial++ {
		dense += runSrcIndexOps(t, srcOps(rng, 50+rng.Intn(400)))
	}
	if dense == 0 {
		t.Fatal("no operation stream reached a dense table")
	}
}

// FuzzSrcIndex is TestSrcIndexMatchesModel over fuzzer-chosen operations.
func FuzzSrcIndex(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 0, 1, 2, 1, 1, 2, 4, 1, 3, 5, 1, 3}) // queue twice, take, post, match
	f.Add([]byte{4, 0x41, 0, 4, 1, 0, 5, 1, 0, 5, 0x81, 0})    // a wildcard post wins over a later exact one
	rng := rand.New(rand.NewSource(2))
	f.Add(srcOps(rng, 300))
	f.Fuzz(func(t *testing.T, ops []byte) { runSrcIndexOps(t, ops) })
}

// TestValidateSeesDenseTables runs both of rank 0's indexes through the
// move to a dense table under Validate, each sweep walking the table: 47
// receives posted before any message arrives (the move re-points the
// queued requests' postQ), then 47 envelopes that wait unexpected and are
// taken by source, two by wildcard. Filing an envelope in the wrong slot,
// or a move that leaves a postQ stale, fails this run with a violation.
func TestValidateSeesDenseTables(t *testing.T) {
	const n = 48
	_, w := newWorldT(t, n, 1, nil)
	var postedDense, unexpDense bool
	_, err := w.Run(func(e *Env) {
		c := e.World()
		if e.Rank() != 0 {
			e.Sleep(vclock.Millisecond)
			if err := c.SendN(0, 1, 8); err != nil {
				t.Error(err)
			}
			if err := c.SendN(0, 2, 8); err != nil {
				t.Error(err)
			}
			e.Finalize()
			return
		}
		reqs := make([]*Request, 0, n-1)
		for src := 1; src < n; src++ {
			r, err := c.Irecv(src, 1)
			if err != nil {
				t.Error(err)
			}
			reqs = append(reqs, r)
		}
		postedDense = e.posted.spill.far(0).dense != nil
		if err := c.Waitall(reqs); err != nil {
			t.Error(err)
		}
		e.Sleep(vclock.Millisecond)
		unexpDense = e.cold.unexp.spill.far(0).dense != nil
		for _, src := range []int{AnySource, AnySource} {
			if _, err := c.Recv(src, 2); err != nil {
				t.Error(err)
			}
		}
		for src := n - 1; src > 0; src-- {
			if _, ok, _ := c.Iprobe(src, 2); !ok {
				continue // taken by a wildcard
			}
			if _, err := c.Recv(src, 2); err != nil {
				t.Error(err)
			}
		}
		e.Finalize()
	})
	if err != nil {
		var v *check.Violation
		if errors.As(err, &v) {
			t.Fatalf("violation: %v", v)
		}
		t.Fatal(err)
	}
	if !postedDense || !unexpDense {
		t.Errorf("dense tables: posted %v, unexpected %v; want both", postedDense, unexpDense)
	}
}
