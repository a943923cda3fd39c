package fsmodel

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"sync"

	"xsim/internal/vclock"
)

// Key addresses one file of the store. A checkpoint file's key is its set
// (the checkpoint prefix), iteration and rank, so a process that knows them
// reaches its file without formatting a name. Any other file has a plain
// name: Set holds it, and Iteration and Rank are -1.
//
// Named parses a name into its key and String formats a key back into its
// name, and the store files a name under its key, so a name and its key
// are one file.
type Key struct {
	Set       string
	Iteration int
	Rank      int
}

// The separators of a checkpoint file's name, set.ckpt.I.rR.
const (
	iterationSep = ".ckpt."
	rankSep      = ".r"
)

// Named returns the key of a file name: the checkpoint key when name reads
// set.ckpt.I.rR with I and R plain decimals (digits only, no leading zero
// but "0" itself, within int range), and the plain key otherwise. The
// numbers are the text after the last ".ckpt." and the last ".r", so
// Named(k.String()) == k for every checkpoint key and Named(s).String() == s
// for every s.
func Named(name string) Key {
	if i := strings.LastIndex(name, rankSep); i >= 0 {
		if rank, ok := decimal(name[i+len(rankSep):]); ok {
			head := name[:i]
			if j := strings.LastIndex(head, iterationSep); j >= 0 {
				if it, ok := decimal(head[j+len(iterationSep):]); ok {
					return Key{Set: head[:j], Iteration: it, Rank: rank}
				}
			}
		}
	}
	return Key{Set: name, Iteration: -1, Rank: -1}
}

// decimal parses s as a plain non-negative decimal, the form String writes.
func decimal(s string) (int, bool) {
	if s == "" || len(s) > 1 && s[0] == '0' {
		return 0, false
	}
	n := 0
	for i := 0; i < len(s); i++ {
		d := int(s[i]) - '0'
		if d < 0 || d > 9 || n > (math.MaxInt-d)/10 {
			return 0, false
		}
		n = n*10 + d
	}
	return n, true
}

// plain reports whether k is a plain name.
func (k Key) plain() bool { return k.Iteration == -1 && k.Rank == -1 }

// String returns k's file name: Set for a plain name, set.ckpt.I.rR for a
// checkpoint file.
func (k Key) String() string {
	if k.plain() {
		return k.Set
	}
	b := make([]byte, 0, len(k.Set)+len(iterationSep)+len(rankSep)+8)
	b = append(b, k.Set...)
	b = append(b, iterationSep...)
	b = strconv.AppendInt(b, int64(k.Iteration), 10)
	b = append(b, rankSep...)
	b = strconv.AppendInt(b, int64(k.Rank), 10)
	return string(b)
}

// canon returns the key the store files k under. A checkpoint key is its
// own; a key with a negative number is read as the name it formats to, so
// a plain key whose name parses and the checkpoint key it parses to are
// one file.
func (k Key) canon() Key {
	if k.Iteration >= 0 && k.Rank >= 0 {
		return k
	}
	return Named(k.String())
}

// drain records one asynchronous copy of a file to a deeper tier: the
// copy exists at tier from virtual time at on. Drain completion is a lazy
// timed event — recorded when the write commits, consulted whenever a
// reader asks which tiers hold the file.
type drain struct {
	tier int
	at   vclock.Time
}

// file is the stored state of one simulated file. Its writing process
// holds it as a *Writer, so writing, committing and scheduling drains look
// nothing up.
type file struct {
	store *Store
	key   Key
	data  []byte
	// tier is the origin tier the file was written to (0 in flat
	// stores); owner is the writing rank (-1 = unowned) and size the
	// declared virtual size, both used by capacity accounting and
	// failure resolution.
	tier  int
	owner int
	size  int
	// drains are the copies staged to deeper tiers.
	drains   []drain
	complete bool
	// lost marks an origin copy destroyed by its owner's failure
	// (volatile tier); the file then survives only through completed
	// drains.
	lost bool
	// gone marks a file deleted or replaced under its writer: the store
	// no longer holds it, so the writer's writes reach nobody and its
	// Commit fails.
	gone bool
	// closed marks a file its writer committed (or tried to).
	closed bool
}

// setKey addresses one checkpoint set. A plain name is a set of its own
// under iteration -1, which no checkpoint set has.
type setKey struct {
	set       string
	iteration int
}

// denseRanks bounds a set's rank-indexed slice. A file of a higher rank (a
// world past two million ranks, or a name that merely parses to one) is
// kept in the set's map instead, so no name makes the store allocate a
// slice for ranks that do not exist.
const denseRanks = 1 << 21

// fileSet holds one set's files by rank (a plain name's file at 0).
type fileSet struct {
	files []*file       // by rank, below denseRanks
	far   map[int]*file // by rank, from denseRanks on
	n     int           // files present
}

// get returns the file of rank r, or nil.
func (fs *fileSet) get(r int) *file {
	if r < len(fs.files) {
		return fs.files[r]
	}
	return fs.far[r]
}

// put stores f as the file of rank r; a nil f removes it.
func (fs *fileSet) put(r int, f *file) {
	switch {
	case r < len(fs.files):
		fs.files[r] = f
	case f == nil:
		delete(fs.far, r)
	case r < denseRanks:
		grown := make([]*file, min(max(r+1, 2*len(fs.files)), denseRanks))
		copy(grown, fs.files)
		grown[r] = f
		fs.files = grown
	default:
		if fs.far == nil {
			fs.far = make(map[int]*file)
		}
		fs.far[r] = f
	}
}

// each calls fn with every file of the set and its rank.
func (fs *fileSet) each(fn func(r int, f *file)) {
	for r, f := range fs.files {
		if f != nil {
			fn(r, f)
		}
	}
	for r, f := range fs.far {
		fn(r, f)
	}
}

// slot returns where k's file lives: its set and its index in the set.
// k must be canonical.
func slot(k Key) (setKey, int) {
	if k.plain() {
		return setKey{k.Set, -1}, 0
	}
	return setKey{k.Set, k.Iteration}, k.Rank
}

// Store holds the persistent contents of the simulated file system. It is
// safe for concurrent use by the parallel engine's partitions.
type Store struct {
	mu   sync.Mutex
	sets map[setKey]*fileSet
	n    int // files present
	// last caches the set used last: a checkpoint phase writes, probes
	// and deletes one set from every rank in turn.
	lastKey setKey
	last    *fileSet
	// spare is the set that emptied last, its rank slice all nil, reused
	// as the next new set: the delete of one generation frees the slice
	// the next generation fills.
	spare *fileSet
	// usage[tier][owner+1] is the declared bytes owner keeps resident on
	// tier, for the hierarchy's capacity/spill decisions (owner -1 is
	// unowned).
	usage [][]int
}

// NewStore returns an empty simulated file system.
func NewStore() *Store {
	return &Store{sets: make(map[setKey]*fileSet)}
}

// set returns the set at sk, or nil when it holds no file and create is
// false. It is called with the lock held.
func (s *Store) set(sk setKey, create bool) *fileSet {
	if s.last != nil && s.lastKey == sk {
		return s.last
	}
	fs := s.sets[sk]
	if fs == nil {
		if !create {
			return nil
		}
		fs = s.spare
		s.spare = nil
		if fs == nil {
			fs = new(fileSet)
		}
		s.sets[sk] = fs
	}
	s.lastKey, s.last = sk, fs
	return fs
}

// lookup returns the file at the canonical key k, or nil. It is called
// with the lock held.
func (s *Store) lookup(k Key) *file {
	sk, r := slot(k)
	fs := s.set(sk, false)
	if fs == nil {
		return nil
	}
	return fs.get(r)
}

// remove takes the file at index r out of the set at sk, marking it gone
// for its writer. It is called with the lock held.
func (s *Store) remove(sk setKey, fs *fileSet, r int) {
	f := fs.get(r)
	s.uncharge(f)
	f.gone = true
	fs.put(r, nil)
	fs.n--
	s.n--
	if fs.n == 0 {
		s.dropSet(sk, fs)
	}
}

// dropSet forgets an empty set and keeps it as the spare when its rank
// slice is the larger. It is called with the lock held.
func (s *Store) dropSet(sk setKey, fs *fileSet) {
	delete(s.sets, sk)
	if s.last == fs {
		s.last = nil
	}
	if s.spare == nil || len(fs.files) > len(s.spare.files) {
		clear(fs.files)
		fs.far = nil
		s.spare = fs
	}
}

// Writer is an open simulated file being written: the file itself, seen
// from the process writing it. It is not safe for concurrent use; each
// simulated process writes its own files.
type Writer file

// Create creates (or truncates) name and returns a Writer. The file exists
// immediately but stays incomplete until Commit; a process failure between
// Create and Commit therefore leaves a corrupted file behind, and a failure
// before Create leaves the file missing — the two checkpoint failure modes
// the paper's application distinguishes.
func (s *Store) Create(name string) *Writer {
	return s.CreateAt(name, 0, -1, 0)
}

// CreateAt is Create with tier placement: the file originates at the
// given tier, owned by the writing rank, with size declared virtual bytes
// charged against the owner's capacity on that tier (synthetic checkpoint
// files declare their modelled size without materialising it). Tiers
// count from 0 and owners from -1 (unowned).
func (s *Store) CreateAt(name string, tier, owner, size int) *Writer {
	return s.create(Named(name), tier, owner, size)
}

// CreateKey is CreateAt for the file at k.
func (s *Store) CreateKey(k Key, tier, owner, size int) *Writer {
	return s.create(k.canon(), tier, owner, size)
}

func (s *Store) create(k Key, tier, owner, size int) *Writer {
	f := &file{store: s, key: k, tier: tier, owner: owner, size: size}
	sk, r := slot(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	fs := s.set(sk, true)
	if old := fs.get(r); old != nil {
		// Truncation replaces the file: its old writer loses it.
		s.uncharge(old)
		old.gone = true
	} else {
		fs.n++
		s.n++
	}
	fs.put(r, f)
	s.charge(f)
	return (*Writer)(f)
}

// usageAt returns owner's usage counter on tier, growing the table when
// grow is set; nil when it was never charged. It is called with the lock
// held.
func (s *Store) usageAt(tier, owner int, grow bool) *int {
	o := owner + 1
	if tier >= len(s.usage) || o >= len(s.usage[tier]) {
		if !grow {
			return nil
		}
		if tier >= len(s.usage) {
			s.usage = append(s.usage, make([][]int, tier+1-len(s.usage))...)
		}
		if o >= len(s.usage[tier]) {
			s.usage[tier] = append(s.usage[tier], make([]int, o+1-len(s.usage[tier]))...)
		}
	}
	return &s.usage[tier][o]
}

// charge and uncharge maintain the per-(tier, owner) capacity accounting;
// both are called with the store lock held.
func (s *Store) charge(f *file) {
	if f.size != 0 {
		*s.usageAt(f.tier, f.owner, true) += f.size
	}
}

func (s *Store) uncharge(f *file) {
	if f.size != 0 {
		*s.usageAt(f.tier, f.owner, true) -= f.size
	}
}

// used returns owner's declared resident bytes on tier; called with the
// lock held.
func (s *Store) used(tier, owner int) int {
	if u := s.usageAt(tier, owner, false); u != nil {
		return *u
	}
	return 0
}

// Usage returns owner's declared resident bytes on tier.
func (s *Store) Usage(tier, owner int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.used(tier, owner)
}

// PlaceTier picks the tier a new size-byte file of owner should originate
// at: the first tier of h with room under its per-owner capacity, falling
// through to the last (durable, unbounded-by-convention) tier.
func (s *Store) PlaceTier(h Hierarchy, owner, size int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	for t := 0; t < len(h)-1; t++ {
		if h[t].Capacity == 0 || s.used(t, owner)+size <= h[t].Capacity {
			return t
		}
	}
	return len(h) - 1
}

// Write appends p to the file. It never fails; the simulated PFS has
// unbounded capacity. Appends are amortized O(1): the writer appends to
// the stored bytes in place (readers copy out under the same lock, and
// appends only ever touch bytes past every previously published length).
// Once the file is deleted or replaced the bytes reach nobody.
func (w *Writer) Write(p []byte) (int, error) {
	f := (*file)(w)
	if f.closed {
		return 0, fmt.Errorf("fsmodel: write to committed file %q", f.key)
	}
	f.store.mu.Lock()
	f.data = append(f.data, p...)
	f.store.mu.Unlock()
	return len(p), nil
}

// Commit marks the file complete. Further writes fail, and so does the
// commit of a file deleted or replaced since its Create.
func (w *Writer) Commit() error {
	f := (*file)(w)
	if f.closed {
		return fmt.Errorf("fsmodel: double commit of %q", f.key)
	}
	f.closed = true
	f.store.mu.Lock()
	defer f.store.mu.Unlock()
	if f.gone {
		return fmt.Errorf("fsmodel: commit of deleted file %q", f.key)
	}
	f.complete = true
	return nil
}

// AddDrain records an asynchronous staging copy of the writer's file (see
// Store.AddDrain); it does nothing once the file is deleted or replaced.
func (w *Writer) AddDrain(tier int, at vclock.Time) {
	f := (*file)(w)
	f.store.mu.Lock()
	defer f.store.mu.Unlock()
	if !f.gone {
		f.addDrain(tier, at)
	}
}

// addDrain appends a drain; the first one makes room for the two a
// three-tier hierarchy stages. It is called with the lock held.
func (f *file) addDrain(tier int, at vclock.Time) {
	if f.drains == nil {
		f.drains = make([]drain, 0, 2)
	}
	f.drains = append(f.drains, drain{tier: tier, at: at})
}

// Len returns the number of bytes written so far.
func (w *Writer) Len() int { return len(w.data) }

// Name returns the file's name.
func (w *Writer) Name() string { return w.key.String() }

// ErrNotExist is returned when opening a missing file.
var ErrNotExist = fmt.Errorf("fsmodel: file does not exist")

// Open returns a copy of the file's contents and whether it was committed
// completely. Opening a missing file returns ErrNotExist.
func (s *Store) Open(name string) (data []byte, complete bool, err error) {
	data, complete, ok := s.OpenKey(Named(name))
	if !ok {
		return nil, false, fmt.Errorf("%w: %q", ErrNotExist, name)
	}
	return data, complete, nil
}

// OpenKey is Open for the file at k; ok is false when it is missing.
func (s *Store) OpenKey(k Key) (data []byte, complete, ok bool) {
	k = k.canon()
	s.mu.Lock()
	defer s.mu.Unlock()
	f := s.lookup(k)
	if f == nil {
		return nil, false, false
	}
	return append([]byte(nil), f.data...), f.complete, true
}

// Exists reports whether name exists (complete or not).
func (s *Store) Exists(name string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lookup(Named(name)) != nil
}

// Complete reports whether name exists and was committed.
func (s *Store) Complete(name string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	f := s.lookup(Named(name))
	return f != nil && f.complete
}

// Size returns the current size of name in bytes, or -1 if it is missing.
func (s *Store) Size(name string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	f := s.lookup(Named(name))
	if f == nil {
		return -1
	}
	return len(f.data)
}

// Delete removes name (every tier's copy). Deleting a missing file is a
// no-op, mirroring the idempotent cleanup scripts the paper's application
// uses.
func (s *Store) Delete(name string) { s.delete(Named(name)) }

// DeleteKey is Delete for the file at k.
func (s *Store) DeleteKey(k Key) { s.delete(k.canon()) }

func (s *Store) delete(k Key) {
	sk, r := slot(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	if fs := s.set(sk, false); fs != nil && fs.get(r) != nil {
		s.remove(sk, fs, r)
	}
}

// DeleteSet removes every file of the checkpoint set (set, iteration).
func (s *Store) DeleteSet(set string, iteration int) {
	if iteration < 0 {
		return
	}
	sk := setKey{set, iteration}
	s.mu.Lock()
	defer s.mu.Unlock()
	fs := s.set(sk, false)
	if fs == nil {
		return
	}
	fs.each(func(_ int, f *file) {
		s.uncharge(f)
		f.gone = true
	})
	s.n -= fs.n
	fs.n = 0
	s.dropSet(sk, fs)
}

// AddDrain records an asynchronous staging copy: name is (or will be)
// present at tier from virtual time at on. The caller computes at from the
// deeper tier's write cost; nothing happens at that time — readers simply
// start seeing the copy once their clocks pass it (a lazy timed event).
func (s *Store) AddDrain(name string, tier int, at vclock.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if f := s.lookup(Named(name)); f != nil {
		f.addDrain(tier, at)
	}
}

// TierOf returns name's origin tier, or -1 if the file is missing or its
// origin copy was lost with its owner.
func (s *Store) TierOf(name string) int { return s.tierOf(Named(name)) }

// TierOfKey is TierOf for the file at k.
func (s *Store) TierOfKey(k Key) int { return s.tierOf(k.canon()) }

func (s *Store) tierOf(k Key) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	f := s.lookup(k)
	if f == nil || f.lost {
		return -1
	}
	return f.tier
}

// NearestCopy returns the fastest (lowest-index) tier holding a copy of
// name as of virtual time now, and the time that copy became (or becomes)
// available: when no copy exists yet — the origin was lost and the only
// surviving drain is still in flight — it returns the earliest future
// drain with at > now. ok is false when the file is missing or no copy
// will ever exist.
func (s *Store) NearestCopy(name string, now vclock.Time) (tier int, at vclock.Time, ok bool) {
	return s.nearestCopy(Named(name), now)
}

// NearestCopyKey is NearestCopy for the file at k.
func (s *Store) NearestCopyKey(k Key, now vclock.Time) (tier int, at vclock.Time, ok bool) {
	return s.nearestCopy(k.canon(), now)
}

func (s *Store) nearestCopy(k Key, now vclock.Time) (tier int, at vclock.Time, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	f := s.lookup(k)
	if f == nil {
		return 0, 0, false
	}
	if !f.lost {
		return f.tier, 0, true
	}
	best := -1
	var bestAt vclock.Time
	var soonest vclock.Time
	haveFuture := false
	for _, d := range f.drains {
		if d.at <= now {
			if best == -1 || d.tier < best {
				best, bestAt = d.tier, d.at
			}
		} else if !haveFuture || d.at < soonest {
			soonest, haveFuture = d.at, true
			tier = d.tier
		}
	}
	if best >= 0 {
		return best, bestAt, true
	}
	if haveFuture {
		return tier, soonest, true
	}
	return 0, 0, false
}

// ResolveFailure applies the buddy-copy failure mode for one failed rank:
// every file the rank owns on a volatile tier loses its origin copy, and
// the drains still in flight at the time of failure (their source died
// with the node) never complete. Files left with no surviving copy are
// removed; files that had finished draining survive on the deeper tiers.
// It is bookkeeping between runs, outside simulated time.
func (s *Store) ResolveFailure(h Hierarchy, owner int, at vclock.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for sk, fs := range s.sets {
		fs.each(func(r int, f *file) {
			if f.owner != owner || f.lost || f.tier >= len(h) || !h[f.tier].Volatile {
				return
			}
			kept := f.drains[:0]
			for _, d := range f.drains {
				if d.at <= at {
					kept = append(kept, d)
				}
			}
			f.drains = kept
			f.lost = true
			if len(f.drains) == 0 {
				s.remove(sk, fs, r)
			}
		})
	}
}

// Iterations returns the iterations of set's checkpoint sets that hold at
// least one file, ascending.
func (s *Store) Iterations(set string) []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []int
	for sk := range s.sets {
		if sk.set == set && sk.iteration >= 0 {
			out = append(out, sk.iteration)
		}
	}
	slices.Sort(out)
	return out
}

// Stat is one file of a listing: its key and whether it was committed.
type Stat struct {
	Key      Key
	Complete bool
}

// Stats lists every file of set's checkpoint sets, ordered by iteration,
// then rank.
func (s *Store) Stats(set string) []Stat {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []Stat
	for sk, fs := range s.sets {
		if sk.set != set || sk.iteration < 0 {
			continue
		}
		fs.each(func(_ int, f *file) { out = append(out, Stat{Key: f.key, Complete: f.complete}) })
	}
	slices.SortFunc(out, func(a, b Stat) int { return compareKeys(a.Key, b.Key) })
	return out
}

// Keys returns the key of every file, ordered by set, then iteration
// (plain names first), then rank.
func (s *Store) Keys() []Key {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Key, 0, s.n)
	for _, fs := range s.sets {
		fs.each(func(_ int, f *file) { out = append(out, f.key) })
	}
	slices.SortFunc(out, compareKeys)
	return out
}

// compareKeys orders keys by set, then iteration, then rank.
func compareKeys(a, b Key) int {
	return cmp.Or(strings.Compare(a.Set, b.Set), cmp.Compare(a.Iteration, b.Iteration), cmp.Compare(a.Rank, b.Rank))
}

// Len returns the number of files in the store.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}
