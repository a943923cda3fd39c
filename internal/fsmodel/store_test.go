package fsmodel

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"xsim/internal/vclock"
)

func TestNamedParsesOnlyWhatStringWrites(t *testing.T) {
	for _, c := range []struct {
		name string
		want Key
	}{
		{"heat.ckpt.5.r3", Key{"heat", 5, 3}},
		{"heat.ckpt.0.r0", Key{"heat", 0, 0}},
		{".ckpt.0.r0", Key{"", 0, 0}},
		{"a.ckpt.1.r2.ckpt.3.r4", Key{"a.ckpt.1.r2", 3, 4}},
		{"a.r.ckpt.3.r4", Key{"a.r", 3, 4}},
		{"heat.ckpt.05.r3", Key{"heat.ckpt.05.r3", -1, -1}},
		{"heat.ckpt.5.r03", Key{"heat.ckpt.5.r03", -1, -1}},
		{"heat.ckpt.-1.r3", Key{"heat.ckpt.-1.r3", -1, -1}},
		{"heat.ckpt.5.r-3", Key{"heat.ckpt.5.r-3", -1, -1}},
		{"heat.ckpt.+5.r3", Key{"heat.ckpt.+5.r3", -1, -1}},
		{"heat.ckpt.99999999999999999999.r1", Key{"heat.ckpt.99999999999999999999.r1", -1, -1}},
		{"heat.ckpt.5.r", Key{"heat.ckpt.5.r", -1, -1}},
		{"heat.ckpt..r1", Key{"heat.ckpt..r1", -1, -1}},
		{"__xsim.exit_time", Key{"__xsim.exit_time", -1, -1}},
		{"", Key{"", -1, -1}},
	} {
		if got := Named(c.name); got != c.want {
			t.Errorf("Named(%q) = %+v, want %+v", c.name, got, c.want)
		}
		if got := Named(c.name).String(); got != c.name {
			t.Errorf("Named(%q).String() = %q", c.name, got)
		}
	}
	// A key with a negative number is the file its name formats to.
	s := NewStore()
	s.CreateKey(Key{"heat", -1, 3}, 0, -1, 0)
	if !exists(s, "heat.ckpt.-1.r3") {
		t.Error("Key{heat, -1, 3} is not the file heat.ckpt.-1.r3")
	}
	s.CreateKey(Key{"heat.ckpt.2.r1", -1, -1}, 0, -1, 0)
	if keys := s.Keys(); keys[0] != (Key{"heat", 2, 1}) {
		t.Errorf("a plain key whose name parses is filed as %+v", keys[0])
	}
	// A rank past the dense slice is a file of its set all the same.
	far := Key{"heat", 2, 1 << 40}
	s.Create(far.String()).Commit()
	if got := s.Stats("heat"); len(got) != 2 || got[1] != (Stat{far, true}) {
		t.Errorf("Stats = %v, want heat.ckpt.2.r1 and %v", got, far)
	}
	s.DeleteSet("heat", 2)
	if _, _, ok := s.Open(far); ok || s.Len() != 1 {
		t.Errorf("DeleteSet left %v", s.Keys())
	}
}

// FuzzKeyName checks that a name and its key are one file: every string
// parses to a key that formats back to it, and every set name survives a
// checkpoint key's round trip.
func FuzzKeyName(f *testing.F) {
	for _, s := range []string{
		"", "heat", "heat.ckpt.5.r3", "heat.ckpt.05.r3", "heat.ckpt.-1.r3",
		"heat.ckpt.5.r-1", "heat.ckpt.99999999999999999999.r1",
		"heat.ckpt.9223372036854775807.r0", "a.ckpt.1.r2.ckpt.3.r4",
		".ckpt.0.r0", "heat.ckpt.5.r", "x.ckpt..r1", "a.r.ckpt.1.r.r2",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		k := Named(s)
		if got := k.String(); got != s {
			t.Fatalf("Named(%q) = %+v formats as %q", s, k, got)
		}
		if k.canon() != k {
			t.Fatalf("Named(%q) = %+v is not canonical (%+v)", s, k, k.canon())
		}
		if !k.plain() && (k.Iteration < 0 || k.Rank < 0) {
			t.Fatalf("Named(%q) = %+v has a negative number", s, k)
		}
		ck := Key{Set: s, Iteration: len(s), Rank: 7}
		if got := Named(ck.String()); got != ck {
			t.Fatalf("%+v formats as %q, which parses to %+v", ck, ck.String(), got)
		}
	})
}

// The reference model: a map from name to file with the store's semantics,
// written as plainly as possible. Writers hold their file, so a deleted or
// replaced file is detached from the map and its writer reaches nobody.
type refFile struct {
	data              []byte
	complete, lost    bool
	tier, owner, size int
	drains            []Drain
	gone              bool
}

type refWriter struct {
	f      *refFile
	n      int
	closed bool
	w      *Writer
}

type refStore struct {
	files map[string]*refFile
	usage map[[2]int]int
}

func (m *refStore) remove(name string) {
	if f := m.files[name]; f != nil {
		m.usage[[2]int{f.tier, f.owner}] -= f.size
		f.gone = true
		delete(m.files, name)
	}
}

func (m *refStore) names() []string {
	var out []string
	for name := range m.files {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// TestStoreMatchesReferenceModel drives the store and the model with one
// seeded random sequence of operations over 3 sets × 4 iterations × 8
// ranks plus plain names, and compares them after every operation. Files
// are created by key, with or without their first bytes, or through the
// name front doors (Create, CreateAt), and drains scheduled at a writer's
// commit or by name (Store.AddDrain).
func TestStoreMatchesReferenceModel(t *testing.T) {
	h := Hierarchy{
		{Name: "node", Capacity: 150, Volatile: true},
		{Name: "bb", Capacity: 300},
		{Name: "pfs"},
	}
	sets := []string{"heat", "a.ckpt.3.r1", "b.r"}
	plain := []string{"__xsim.exit_time", "heat.ckpt.07.r1", "heat.ckpt.1.r-1", "heat.ckpt.2.rx", "heat"}
	const iters, ranks = 4, 8
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := NewStore()
		m := &refStore{files: map[string]*refFile{}, usage: map[[2]int]int{}}
		var writers []*refWriter
		pick := func() (string, Key) {
			if rng.Intn(5) == 0 {
				name := plain[rng.Intn(len(plain))]
				return name, Named(name)
			}
			r := rng.Intn(ranks)
			if rng.Intn(10) == 0 {
				r += denseRanks // a rank the set keeps in its map
			}
			k := Key{sets[rng.Intn(len(sets))], 1 + rng.Intn(iters), r}
			return k.String(), k
		}
		keyed := func() bool { return rng.Intn(2) == 0 }
		for step := 0; step < 3000; step++ {
			name, k := pick()
			op := rng.Intn(14)
			where := fmt.Sprintf("seed %d step %d op %d on %q", seed, step, op, name)
			switch op {
			case 0, 1: // Create / CreateAt / CreateKey
				tier, owner, size := 0, -1, 0
				if op == 1 {
					tier, owner, size = rng.Intn(len(h)), rng.Intn(ranks+1)-1, rng.Intn(100)
				}
				var w *Writer
				var head []byte
				switch {
				case keyed() && keyed():
					head = []byte(fmt.Sprint("head", step))
					w = s.CreateKeyWith(k, tier, owner, size, head)
				case keyed():
					w = s.CreateKey(k, tier, owner, size)
				case op == 0:
					w = s.Create(name)
				default:
					w = s.CreateAt(name, tier, owner, size)
				}
				m.remove(name)
				f := &refFile{tier: tier, owner: owner, size: size, data: head}
				m.files[name] = f
				m.usage[[2]int{tier, owner}] += size
				writers = append(writers, &refWriter{f: f, w: w, n: len(head)})
				if w.Name() != name {
					t.Fatalf("%s: writer named %q", where, w.Name())
				}
			case 2: // Write
				if len(writers) == 0 {
					continue
				}
				rw := writers[rng.Intn(len(writers))]
				p := []byte(fmt.Sprint(step))
				_, err := rw.w.Write(p)
				if (err != nil) != rw.closed {
					t.Fatalf("%s: Write err = %v, writer closed %v", where, err, rw.closed)
				}
				if !rw.closed {
					rw.n += len(p)
					if !rw.f.gone {
						rw.f.data = append(rw.f.data, p...)
					}
				}
				if rw.w.Len() != rw.n {
					t.Fatalf("%s: Len = %d, want %d", where, rw.w.Len(), rw.n)
				}
			case 3: // Commit, or CommitDrains
				if len(writers) == 0 {
					continue
				}
				rw := writers[rng.Intn(len(writers))]
				var drains []Drain
				for range rng.Intn(3) {
					drains = append(drains, Drain{1 + rng.Intn(len(h)-1), vclock.Time(rng.Intn(1000))})
				}
				var err error
				if drains == nil && keyed() {
					err = rw.w.Commit()
				} else {
					err = rw.w.CommitDrains(drains)
				}
				want := !rw.closed && !rw.f.gone
				if (err == nil) != want {
					t.Fatalf("%s: Commit err = %v, want success %v", where, err, want)
				}
				rw.closed = true
				if want {
					rw.f.complete = true
					rw.f.drains = append(rw.f.drains, drains...)
				}
			case 4: // Delete
				s.Delete(k)
				m.remove(name)
			case 5: // AddDrain by name
				tier, at := 1+rng.Intn(len(h)-1), vclock.Time(rng.Intn(1000))
				s.AddDrain(name, tier, at)
				if f := m.files[name]; f != nil {
					f.drains = append(f.drains, Drain{tier, at})
				}
			case 6: // TierOf
				got := s.TierOf(k)
				want := -1
				if f := m.files[name]; f != nil && !f.lost {
					want = f.tier
				}
				if got != want {
					t.Fatalf("%s: TierOf = %d, want %d", where, got, want)
				}
			case 7: // NearestCopy
				now := vclock.Time(rng.Intn(1200))
				tier, at, ok := s.NearestCopy(k, now)
				wt, wa, wok := refNearest(m.files[name], now)
				if tier != wt || at != wa || ok != wok {
					t.Fatalf("%s: NearestCopy(%d) = %d, %d, %v; want %d, %d, %v", where, now, tier, at, ok, wt, wa, wok)
				}
			case 8: // ResolveFailure
				owner, at := rng.Intn(ranks+1)-1, vclock.Time(rng.Intn(1000))
				s.ResolveFailure(h, owner, at)
				for n, f := range m.files {
					if f.owner != owner || f.lost || f.tier >= len(h) || !h[f.tier].Volatile {
						continue
					}
					f.drains = slices.DeleteFunc(f.drains, func(d Drain) bool { return d.At > at })
					f.lost = true
					if len(f.drains) == 0 {
						m.remove(n)
					}
				}
			case 9: // PlaceTier
				owner, size := rng.Intn(ranks+1)-1, rng.Intn(200)
				want := len(h) - 1
				for tier := 0; tier < len(h)-1; tier++ {
					if h[tier].Capacity == 0 || m.usage[[2]int{tier, owner}]+size <= h[tier].Capacity {
						want = tier
						break
					}
				}
				if got := s.PlaceTier(h, owner, size); got != want {
					t.Fatalf("%s: PlaceTier(%d, %d) = %d, want %d", where, owner, size, got, want)
				}
			case 10: // Open
				f := m.files[name]
				data, complete, ok := s.Open(k)
				if ok != (f != nil) {
					t.Fatalf("%s: Open ok %v, model has it %v", where, ok, f != nil)
				}
				if f != nil && (!bytes.Equal(data, f.data) || complete != f.complete) {
					t.Fatalf("%s: Open = %q, %v; want %q, %v", where, data, complete, f.data, f.complete)
				}
				var head [3]byte
				n, complete, ok := s.ReadHead(k, head[:])
				if ok != (f != nil) || f != nil && (n != len(f.data) || complete != f.complete ||
					!bytes.Equal(head[:min(n, len(head))], f.data[:min(n, len(head))])) {
					t.Fatalf("%s: ReadHead = %q, %d, %v, %v; want the model's %q, %v", where, head, n, complete, ok, f.data, f.complete)
				}
			case 11: // DeleteSet
				if k.plain() {
					continue
				}
				s.DeleteSet(k.Set, k.Iteration)
				for n := range m.files {
					if nk := Named(n); nk.Set == k.Set && nk.Iteration == k.Iteration && !nk.plain() {
						m.remove(n)
					}
				}
			case 12: // Iterations
				set := sets[rng.Intn(len(sets))]
				var want []int
				for n := range m.files {
					if nk := Named(n); nk.Set == set && !nk.plain() && !slices.Contains(want, nk.Iteration) {
						want = append(want, nk.Iteration)
					}
				}
				slices.Sort(want)
				if got := s.Iterations(set); !slices.Equal(got, want) {
					t.Fatalf("%s: Iterations(%q) = %v, want %v", where, set, got, want)
				}
			case 13: // Stats
				set := sets[rng.Intn(len(sets))]
				var want []Stat
				for n, f := range m.files {
					if nk := Named(n); nk.Set == set && !nk.plain() {
						want = append(want, Stat{nk, f.complete})
					}
				}
				slices.SortFunc(want, func(a, b Stat) int { return compareKeys(a.Key, b.Key) })
				if got := s.Stats(set); !slices.Equal(got, want) {
					t.Fatalf("%s: Stats(%q) = %v, want %v", where, set, got, want)
				}
			}
			var got []string
			for _, k := range s.Keys() {
				got = append(got, k.String())
			}
			sort.Strings(got)
			if want := m.names(); s.Len() != len(want) || !slices.Equal(got, want) {
				t.Fatalf("%s: Len %d, Keys %q; model holds %q", where, s.Len(), got, want)
			}
			for tier := range h {
				for owner := -1; owner < ranks; owner++ {
					if got, want := s.Usage(tier, owner), m.usage[[2]int{tier, owner}]; got != want {
						t.Fatalf("%s: Usage(%d, %d) = %d, want %d", where, tier, owner, got, want)
					}
				}
			}
		}
	}
}

// refNearest is NearestCopy over a model file.
func refNearest(f *refFile, now vclock.Time) (int, vclock.Time, bool) {
	if f == nil {
		return 0, 0, false
	}
	if !f.lost {
		return f.tier, 0, true
	}
	best, bestAt := -1, vclock.Time(0)
	future, futureAt := -1, vclock.Time(0)
	for _, d := range f.drains {
		switch {
		case d.At <= now && (best == -1 || d.Tier < best):
			best, bestAt = d.Tier, d.At
		case d.At > now && (future == -1 || d.At < futureAt):
			future, futureAt = d.Tier, d.At
		}
	}
	if best >= 0 {
		return best, bestAt, true
	}
	if future >= 0 {
		return future, futureAt, true
	}
	return 0, 0, false
}
