package mpi

import (
	"math/rand"
	"slices"
	"testing"
)

// item sits in two lists at once, as an unexpected envelope does.
type item struct {
	id   int
	a, b links[item]
}

func aAt(x *item) *links[item] { return &x.a }
func bAt(x *item) *links[item] { return &x.b }

// listModel drives two lists over a shared set of items alongside a slice
// per list, the model each list must equal after every operation.
type listModel struct {
	items []item
	lists [2]list[item]
	model [2][]*item
}

var itemAt = [2]func(*item) *links[item]{aAt, bAt}

// step applies one operation coded in a byte: bit 0 picks the list, bit 1
// push or unlink, the rest which item (a push of an item already in the
// list, or an unlink from an empty one, is skipped: both are caller bugs
// the list does not guard against).
func (m *listModel) step(op byte) {
	which := int(op & 1)
	q, at, mod := &m.lists[which], itemAt[which], &m.model[which]
	pick := int(op >> 2)
	if op&2 == 0 {
		x := &m.items[pick%len(m.items)]
		if slices.Contains(*mod, x) {
			return
		}
		q.push(x, at)
		*mod = append(*mod, x)
		return
	}
	if len(*mod) == 0 {
		return
	}
	i := pick % len(*mod)
	q.unlink((*mod)[i], at)
	*mod = slices.Delete(*mod, i, i+1)
}

// check walks both lists and compares them with the model.
func (m *listModel) check(t *testing.T) {
	t.Helper()
	for which := range m.lists {
		var got []*item
		if broken := m.lists[which].walk(itemAt[which], func(x *item) { got = append(got, x) }); broken != "" {
			t.Fatalf("list %d: %s", which, broken)
		}
		if !slices.Equal(got, m.model[which]) {
			t.Fatalf("list %d holds %v, model %v", which, ids(got), ids(m.model[which]))
		}
	}
}

func ids(xs []*item) []int {
	out := make([]int, len(xs))
	for i, x := range xs {
		out[i] = x.id
	}
	return out
}

func newListModel() *listModel {
	m := &listModel{items: make([]item, 6)}
	for i := range m.items {
		m.items[i].id = i
	}
	return m
}

// runListOps checks the lists against the model after every operation.
func runListOps(t *testing.T, ops []byte) {
	m := newListModel()
	for _, op := range ops {
		m.step(op)
		m.check(t)
	}
}

func TestListMatchesSliceModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for range 200 {
		ops := make([]byte, rng.Intn(64))
		rng.Read(ops)
		runListOps(t, ops)
	}
}

// FuzzList is TestListMatchesSliceModel over fuzzer-chosen operations.
func FuzzList(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 4, 5, 8, 2, 3, 2})       // fill both lists, drain from the front
	f.Add([]byte{0, 4, 8, 12, 6, 6, 6, 6})      // unlink from the middle and the tail
	f.Add([]byte{0, 1, 0, 1, 2, 3, 0, 1, 2, 3}) // one item in both lists, in and out again
	f.Fuzz(runListOps)
}

// A push/unlink cycle is field writes only: it must not allocate.
func TestListPushUnlinkAllocs(t *testing.T) {
	var q list[item]
	var x, y item
	q.push(&x, aAt)
	if n := testing.AllocsPerRun(1000, func() {
		q.push(&y, aAt)
		q.unlink(&x, aAt)
		q.push(&x, aAt)
		q.unlink(&y, aAt)
	}); n != 0 {
		t.Fatalf("push/unlink cycle allocates %v times", n)
	}
}

// walk reports a back link that is not the predecessor, a tail that is not
// the last element, and ends on a forward cycle.
func TestListWalkReportsBrokenLinks(t *testing.T) {
	build := func() (*list[item], []item) {
		xs := make([]item, 3)
		var q list[item]
		for i := range xs {
			q.push(&xs[i], aAt)
		}
		return &q, xs
	}
	for name, corrupt := range map[string]func(q *list[item], xs []item){
		"back link":     func(q *list[item], xs []item) { xs[2].a.prev = &xs[0].a },
		"stale tail":    func(q *list[item], xs []item) { q.tail = &xs[1].a },
		"forward cycle": func(q *list[item], xs []item) { xs[2].a.next = &xs[1] },
	} {
		q, xs := build()
		corrupt(q, xs)
		if q.walk(aAt, func(*item) {}) == "" {
			t.Errorf("%s: walk found nothing wrong", name)
		}
	}
}
