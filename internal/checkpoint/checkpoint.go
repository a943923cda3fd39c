// Package checkpoint implements application-level checkpoint/restart on
// top of the simulated parallel file system, following the structure of
// the paper's heat application: each rank periodically writes a checkpoint
// file containing the application's configuration and current data, a
// global barrier follows so the previous checkpoint set can be deleted
// safely, and on restart the application loads the last valid checkpoint —
// deleting corrupted files (present but missing information) while a
// cleanup pass outside the application (the paper's shell script) removes
// incomplete sets (files missing entirely due to a failure during
// checkpointing).
//
// The package also persists the simulated application exit time across
// runs (the paper's xSim extension for continuous virtual timing after an
// abort and restart).
package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"xsim/internal/fsmodel"
	"xsim/internal/mpi"
	"xsim/internal/redundancy"
	"xsim/internal/vclock"
)

// magic identifies checkpoint files.
var magic = [4]byte{'X', 'C', 'K', 'P'}

const headerLen = 4 + 4 + 4 + 8 + 8 + 8 + 8 // magic, version, flags, iteration, rank, payload length, base iteration

// version is the checkpoint format version.
const version = 1

// flagSynthetic marks a checkpoint whose payload bytes were not stored:
// large-scale modelled experiments charge the write cost of the full
// payload without materialising it (like the payload-free messages of the
// MPI layer).
const flagSynthetic = 1 << 0

// flagIncremental marks a delta checkpoint: it holds only the data changed
// since its base iteration, so restoring it requires the base checkpoint
// (and any intermediate deltas) as well — the incremental/differential
// checkpointing technique of the paper's related work.
const flagIncremental = 1 << 1

// ErrCorrupted reports a checkpoint file that exists but misses
// information (the paper's "corrupted checkpoint").
var ErrCorrupted = errors.New("checkpoint: corrupted checkpoint file")

// Meta describes a checkpoint file.
type Meta struct {
	// Iteration is the application iteration the checkpoint captures.
	Iteration int
	// Rank is the writing process's rank.
	Rank int
	// PayloadSize is the checkpoint payload size in bytes. For synthetic
	// checkpoints (WriteSized) the size is recorded but the bytes are
	// not stored.
	PayloadSize int
	// Synthetic reports whether the payload bytes were omitted.
	Synthetic bool
	// Incremental reports whether this is a delta checkpoint, and
	// BaseIteration names the checkpoint it builds on (the previous full
	// checkpoint or delta).
	Incremental   bool
	BaseIteration int
}

// FileName returns the checkpoint file name of one rank at one iteration.
// The package addresses files by key and formats a name only here and in
// error text.
func FileName(prefix string, iteration, rank int) string {
	return key(prefix, iteration, rank).String()
}

// key returns the store key of one rank's checkpoint file at one
// iteration: the checkpoint set is the prefix.
func key(prefix string, iteration, rank int) fsmodel.Key {
	return fsmodel.Key{Set: prefix, Iteration: iteration, Rank: rank}
}

// FS gives one simulated process timed access to the simulated parallel
// file system: operations advance the process's virtual clock according to
// the cost model of the storage tier they touch, and a process failure
// mid-write leaves a corrupted (incomplete) file behind. A flat file
// system is a one-tier hierarchy, so every write, read and delete takes
// the same path on any store. It is a value of one pointer: the store, the
// hierarchy and the client count are the world's, read through the Env.
type FS struct {
	env *mpi.Env
}

// NewFS returns the process's file-system handle; the world must have been
// configured with a file-system store.
func NewFS(env *mpi.Env) (FS, error) {
	if env.FSStore() == nil {
		return FS{}, errors.New("checkpoint: world has no file-system store")
	}
	return FS{env: env}, nil
}

// Write writes one rank's checkpoint: header, then payload, committed at
// the end. The virtual write time is charged *between* creating the file
// and committing it, so a process failure during the write leaves the file
// present but incomplete — exactly the paper's corrupted-checkpoint
// failure mode. A meta with Incremental set writes a delta checkpoint on
// BaseIteration (which must itself be restorable): the write time covers
// only the delta, which is incremental checkpointing's entire point, and
// restoring requires the whole chain back to a full checkpoint.
func (fs *FS) Write(prefix string, meta Meta, payload []byte) error {
	meta.PayloadSize = len(payload)
	meta.Synthetic = false
	return fs.write(prefix, meta, payload)
}

// WriteSized is Write with a synthetic payload: the header records a
// payload of size bytes and the write charges the corresponding virtual
// time, but the bytes are not materialised. Large-scale modelled
// experiments use it the way the MPI layer uses payload-free messages.
func (fs *FS) WriteSized(prefix string, meta Meta, size int) error {
	meta.PayloadSize = size
	meta.Synthetic = true
	return fs.write(prefix, meta, nil)
}

func (fs *FS) write(prefix string, meta Meta, payload []byte) error {
	k := key(prefix, meta.Iteration, meta.Rank)
	size := headerLen + meta.PayloadSize
	// Staged write: the checkpoint commits to the fastest tier with room
	// (usually node-local memory) at that tier's cost; drains to the
	// deeper tiers are scheduled after Commit.
	store := fs.env.FSStore()
	origin := store.PlaceTier(fs.env.FSHierarchy(), meta.Rank, size)
	tier := fs.env.FSHierarchy()[origin].Model
	fs.env.Elapse(tier.MetadataCost())
	var flags uint32
	if meta.Synthetic {
		flags |= flagSynthetic
	}
	if meta.Incremental {
		flags |= flagIncremental
	}
	var buf [headerLen]byte
	hdr := append(buf[:0], magic[:]...)
	hdr = binary.LittleEndian.AppendUint32(hdr, version)
	hdr = binary.LittleEndian.AppendUint32(hdr, flags)
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(meta.Iteration))
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(meta.Rank))
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(meta.PayloadSize))
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(meta.BaseIteration))
	w := store.CreateKeyWith(k, origin, meta.Rank, size, hdr)
	// The write cost elapses while the file is incomplete: a failure
	// activating here corrupts the checkpoint.
	fs.env.Elapse(tier.WriteCostAmong(size, fs.env.Size()))
	if _, err := w.Write(payload); err != nil {
		return err
	}
	fs.env.Elapse(tier.MetadataCost())
	// The commit's clock is the last Elapse's, which has already let any
	// pending failure activate, so the drains can be stamped from it and
	// recorded with the commit.
	var drains [3]fsmodel.Drain
	return w.CommitDrains(fs.drains(drains[:0], origin, size))
}

// drains appends to ds the asynchronous staging of a file committed now
// down the hierarchy: each deeper tier's copy completes one write (at that
// tier's shared cost) after the previous one, overlapping the
// application's subsequent compute. A failure of the owner before a drain
// completes loses that drain (the source copy died with the node) — the
// buddy-copy failure mode resolved by Store.ResolveFailure.
func (fs *FS) drains(ds []fsmodel.Drain, origin, size int) []fsmodel.Drain {
	at, hier := fs.env.Now(), fs.env.FSHierarchy()
	for q := origin + 1; q < len(hier); q++ {
		at = at.Add(hier[q].MetadataCost() + hier[q].WriteCostAmong(size, fs.env.Size()))
		ds = append(ds, fsmodel.Drain{Tier: q, At: at})
	}
	return ds
}

// Read loads and validates one rank's checkpoint. It returns ErrCorrupted
// (wrapped) for files that exist but miss information, and
// fsmodel.ErrNotExist (wrapped) for missing files.
func (fs *FS) Read(prefix string, iteration, rank int) (Meta, []byte, error) {
	return fs.restore(prefix, rank, iteration, false)
}

// restore drives a RestoreStep to completion on the calling closure VP.
func (fs *FS) restore(prefix string, rank, iteration int, chargeOnly bool) (Meta, []byte, error) {
	var rs RestoreState
	rs.Begin(prefix, rank, iteration, chargeOnly)
	for {
		done, park, err := fs.RestoreStep(&rs)
		if done {
			return rs.meta, rs.payload, err
		}
		fs.env.Block(park)
	}
}

// readGate resolves which tier a read of k is served from — the fastest
// holding a copy, the first tier for a missing file — and how long the
// reader must wait first: when the only surviving copy is a drain still
// in flight, the read blocks until it lands (interruptible — a failure can
// strike mid-wait). Splitting the gate from the read body lets
// RestoreStep park on the wait.
func (fs *FS) readGate(k fsmodel.Key) (tier fsmodel.Model, wait vclock.Duration) {
	now := fs.env.Now()
	t, at, _ := fs.env.FSStore().NearestCopy(k, now)
	if at > now {
		wait = at.Sub(now)
	}
	return fs.env.FSHierarchy()[t].Model, wait
}

// readWithTier is the body of Read after the tier gate: metadata charge,
// open and validation, read charge.
func (fs *FS) readWithTier(k fsmodel.Key, tier fsmodel.Model) (Meta, []byte, error) {
	fs.env.Elapse(tier.MetadataCost())
	meta, payload, n, err := openValid(fs.env.FSStore(), k)
	if err == nil {
		fs.env.Elapse(tier.ReadCostAmong(headerLen+meta.PayloadSize, fs.env.Size()))
	} else if n >= 0 {
		// A file that is there was read before it was rejected.
		fs.env.Elapse(tier.ReadCostAmong(n, fs.env.Size()))
	}
	return meta, payload, err
}

// ChargeRestore charges the virtual time of restoring iteration's
// checkpoint for rank without materialising payloads: the whole chain of
// delta checkpoints back to a full one is read, each file from the fastest
// tier holding a copy. Modelled-mode restarts use it the way WriteSized
// models payload-free checkpoint writes.
func (fs *FS) ChargeRestore(prefix string, rank, iteration int) error {
	_, _, err := fs.restore(prefix, rank, iteration, true)
	return err
}

// RestoreState carries one checkpoint restore across steps: a Read
// (chargeOnly=false, one file, payload kept) or a ChargeRestore
// (chargeOnly=true, the whole delta chain, costs only). The only blocking
// point is waiting for an in-flight drain to land. Zero value ready after
// Begin; reused restore after restore.
type RestoreState struct {
	prefix     string
	rank       int
	iteration  int
	chargeOnly bool

	hops    int
	gated   bool
	key     fsmodel.Key
	tier    fsmodel.Model
	wait    vclock.Duration
	sl      mpi.SleepState
	meta    Meta
	payload []byte
}

// Begin arms a restore of iteration's checkpoint for rank.
func (rs *RestoreState) Begin(prefix string, rank, iteration int, chargeOnly bool) {
	*rs = RestoreState{prefix: prefix, rank: rank, iteration: iteration, chargeOnly: chargeOnly}
}

// Payload returns the requested checkpoint's payload after a
// chargeOnly=false RestoreStep reports done.
func (rs *RestoreState) Payload() []byte { return rs.payload }

// RestoreStep advances the restore — the one implementation of the read
// and of the chain walk; call it from every step until it reports done,
// parking on the park value meanwhile (a Prog returns it from Step; Read
// and ChargeRestore hand it to Env.Block). It returns ErrCorrupted
// (wrapped) for files that exist but miss information, and
// fsmodel.ErrNotExist (wrapped) for missing files.
func (fs *FS) RestoreStep(rs *RestoreState) (done bool, park any, err error) {
	for {
		if rs.hops >= 1000 { // bound against base-pointer cycles
			return true, nil, fmt.Errorf("%w: restore chain from iteration %d too long", ErrCorrupted, rs.iteration)
		}
		if !rs.gated {
			rs.key = key(rs.prefix, rs.iteration, rs.rank)
			rs.tier, rs.wait = fs.readGate(rs.key)
			rs.gated = true
		}
		if rs.wait > 0 {
			done, park := fs.env.SleepStep(&rs.sl, rs.wait)
			if !done {
				return false, park, nil
			}
			rs.wait = 0
		}
		meta, payload, err := fs.readWithTier(rs.key, rs.tier)
		if err != nil {
			return true, nil, err
		}
		rs.meta, rs.payload = meta, payload
		rs.gated = false
		if !rs.chargeOnly || !meta.Incremental {
			return true, nil, nil
		}
		rs.iteration = meta.BaseIteration
		rs.hops++
	}
}

// Delete removes one rank's checkpoint file (idempotent).
func (fs *FS) Delete(prefix string, iteration, rank int) {
	k := key(prefix, iteration, rank)
	t := max(fs.env.FSStore().TierOf(k), 0)
	fs.env.Elapse(fs.env.FSHierarchy()[t].MetadataCost())
	fs.env.FSStore().Delete(k)
}

// openValid opens the checkpoint file at k and returns its decoded
// contents if they can be trusted (see trusted), and n, the bytes it read
// (-1 when the file is missing). Every reader goes through it, and every
// probe through trusted, so a file is restorable exactly when Read accepts
// it. It returns ErrCorrupted (wrapped) for a file that fails the test and
// fsmodel.ErrNotExist (wrapped) for a missing one, and charges nothing.
func openValid(store *fsmodel.Store, k fsmodel.Key) (meta Meta, payload []byte, n int, err error) {
	data, complete, ok := store.Open(k)
	if !ok {
		return Meta{}, nil, -1, fmt.Errorf("%w: %q", fsmodel.ErrNotExist, k)
	}
	meta, payload, err = trusted(k, data, complete)
	return meta, payload, len(data), err
}

// trusted decodes the contents of the checkpoint file at k if they can be
// trusted: committed, well-formed, and written for k's iteration and rank.
func trusted(k fsmodel.Key, data []byte, complete bool) (Meta, []byte, error) {
	meta, payload, err := decode(data, complete)
	if err = writtenFor(k, meta, err); err != nil {
		return Meta{}, nil, err
	}
	return meta, payload, nil
}

// writtenFor is the verdict on the file at k given its header's decoding:
// the decoding's error, naming k, or an error unless the header was
// written for k's iteration and rank.
func writtenFor(k fsmodel.Key, meta Meta, err error) error {
	switch {
	case err != nil:
		return fmt.Errorf("%w: %s", err, k)
	case meta.Iteration != k.Iteration || meta.Rank != k.Rank:
		return fmt.Errorf("%w: %s has meta %+v", ErrCorrupted, k, meta)
	}
	return nil
}

// decode parses and validates a checkpoint file's bytes.
func decode(data []byte, complete bool) (Meta, []byte, error) {
	meta, err := decodeHeader(data, len(data), complete)
	if err != nil || meta.Synthetic {
		return meta, nil, err
	}
	return meta, data[headerLen:], nil
}

// decodeHeader parses and validates the header of a checkpoint file of n
// bytes, whose first min(n, headerLen) bytes are head.
func decodeHeader(head []byte, n int, complete bool) (Meta, error) {
	if !complete {
		return Meta{}, fmt.Errorf("%w (uncommitted)", ErrCorrupted)
	}
	if n < headerLen {
		return Meta{}, fmt.Errorf("%w (truncated header)", ErrCorrupted)
	}
	if string(head[:4]) != string(magic[:]) {
		return Meta{}, fmt.Errorf("%w (bad magic)", ErrCorrupted)
	}
	if v := binary.LittleEndian.Uint32(head[4:]); v != version {
		return Meta{}, fmt.Errorf("%w (version %d)", ErrCorrupted, v)
	}
	flags := binary.LittleEndian.Uint32(head[8:])
	meta := Meta{
		Iteration:     int(binary.LittleEndian.Uint64(head[12:])),
		Rank:          int(binary.LittleEndian.Uint64(head[20:])),
		PayloadSize:   int(binary.LittleEndian.Uint64(head[28:])),
		BaseIteration: int(binary.LittleEndian.Uint64(head[36:])),
		Synthetic:     flags&flagSynthetic != 0,
		Incremental:   flags&flagIncremental != 0,
	}
	// All header counters are non-negative by construction; a corrupt file
	// with a top bit set decodes to a negative int, and a negative
	// PayloadSize on a synthetic checkpoint would otherwise reach
	// ReadCost() as a negative size and charge a negative read time.
	if meta.Iteration < 0 || meta.Rank < 0 || meta.PayloadSize < 0 || meta.BaseIteration < 0 {
		return Meta{}, fmt.Errorf("%w (negative header field)", ErrCorrupted)
	}
	// A header whose payload size pushes the file size past int would wrap
	// headerLen+PayloadSize negative, and a read of it would charge no
	// time at all.
	if meta.PayloadSize > math.MaxInt-headerLen {
		return Meta{}, fmt.Errorf("%w (payload size %d overflows the file size)", ErrCorrupted, meta.PayloadSize)
	}
	// A delta must build on an earlier iteration; a self- or
	// forward-referential base pointer can never restore (Chain would
	// reject it, but Read must not accept the file in the first place).
	if meta.Incremental && meta.BaseIteration >= meta.Iteration {
		return Meta{}, fmt.Errorf("%w (base iteration %d not before iteration %d)",
			ErrCorrupted, meta.BaseIteration, meta.Iteration)
	}
	payload := n - headerLen
	if meta.Synthetic && payload != 0 {
		return Meta{}, fmt.Errorf("%w (synthetic checkpoint carries %d payload bytes)", ErrCorrupted, payload)
	}
	if !meta.Synthetic && payload != meta.PayloadSize {
		return Meta{}, fmt.Errorf("%w (payload %d bytes, header says %d)", ErrCorrupted, payload, meta.PayloadSize)
	}
	return meta, nil
}

// ProbeValid reports whether rank's checkpoint of the iteration exists and
// can be restored, charging the metadata operation when a file is there to
// open and deleting the file when it is corrupted. Walking the candidate
// iterations newest first through ProbeValid finds the last valid
// checkpoint the way the paper's application does: it "automatically loads
// the last checkpoint and automatically deletes any corrupted checkpoint".
// An application whose candidates follow a rule (a checkpoint cadence)
// needs no list of them.
func (fs *FS) ProbeValid(prefix string, rank, iteration int) bool {
	k := key(prefix, iteration, rank)
	var head [headerLen]byte
	n, complete, ok := fs.env.FSStore().ReadHead(k, head[:])
	if !ok {
		return false
	}
	if len(fs.env.FSHierarchy()) == 1 {
		// ROADMAP 1b pins this undercharge: a probe charges the metadata
		// latency of a one-tier store and nothing on a tiered one, where
		// every other operation charges the tier it touches.
		fs.env.Elapse(fs.env.FSHierarchy()[0].MetadataCost())
	}
	meta, err := decodeHeader(head[:min(n, headerLen)], n, complete)
	if err = writtenFor(k, meta, err); err != nil {
		// Corrupted: delete it; the caller keeps looking at older sets.
		fs.Delete(prefix, iteration, rank)
		return false
	}
	// A delta checkpoint is only restorable if its chain back to a
	// full checkpoint is intact.
	return !meta.Incremental || Chain(fs.env.FSStore(), prefix, rank, iteration) != nil
}

// Chain returns the iterations of the checkpoint chain ending at
// iteration, base first: the full checkpoint followed by every delta up to
// and including iteration. For a full checkpoint the chain is just
// {iteration}. It returns nil if any link is missing, corrupt, or cyclic,
// and inspects the store directly without charging virtual time (a
// bookkeeping scan).
func Chain(store *fsmodel.Store, prefix string, rank, iteration int) []int {
	var rev []int
	for hops := 0; hops < 1000; hops++ { // bound against base-pointer cycles
		meta, _, _, err := openValid(store, key(prefix, iteration, rank))
		if err != nil {
			return nil
		}
		rev = append(rev, iteration)
		if !meta.Incremental {
			out := make([]int, len(rev))
			for i, it := range rev {
				out[len(rev)-1-i] = it
			}
			return out
		}
		iteration = meta.BaseIteration
	}
	return nil
}

// SetComplete reports whether iteration's checkpoint set can be restored:
// each of n logical ranks has a replica (redundancy.Covered) whose file is
// committed, well-formed and written for this iteration and rank — the
// test every restart probe applies (openValid). With replicas 1 every one
// of n ranks needs its own file.
func SetComplete(store *fsmodel.Store, prefix string, iteration, n, replicas int) bool {
	return redundancy.Covered(n, replicas, func(rank int) bool {
		_, _, _, err := openValid(store, key(prefix, iteration, rank))
		return err == nil
	})
}

// CleanIncompleteSets deletes every checkpoint set that is missing files
// or contains corrupted files, keeping only fully valid sets. It mirrors
// the shell script the paper runs before a restart ("incomplete
// checkpoints are deleted using a shell script") and therefore operates on
// the store directly, outside simulated time. It returns the iterations
// removed.
func CleanIncompleteSets(store *fsmodel.Store, prefix string, n int) []int {
	return CleanIncompleteReplicaSets(store, prefix, n, 1)
}

// CleanIncompleteReplicaSets is CleanIncompleteSets for n logical ranks
// at the given replication degree: it keeps the sets SetComplete accepts,
// so a dead replica's missing file does not delete a set while another
// replica covers its logical rank.
func CleanIncompleteReplicaSets(store *fsmodel.Store, prefix string, n, replicas int) []int {
	var removed []int
	for _, it := range store.Iterations(prefix) {
		if SetComplete(store, prefix, it, n, replicas) {
			continue
		}
		store.DeleteSet(prefix, it)
		removed = append(removed, it)
	}
	return removed
}

// exitTimeKey is the reserved plain file holding the simulated exit time.
var exitTimeKey = fsmodel.Key{Set: "__xsim.exit_time", Iteration: -1, Rank: -1}

// SaveExitTime persists the simulated time of the application exit (the
// maximum simulated process time) so a restarted run can initialise every
// process clock from it — xSim's support for continuous virtual timing
// across abort/restart cycles.
func SaveExitTime(store *fsmodel.Store, t vclock.Time) error {
	w := store.CreateKey(exitTimeKey, 0, -1, 0)
	if _, err := w.Write(binary.LittleEndian.AppendUint64(nil, uint64(t))); err != nil {
		return err
	}
	return w.Commit()
}

// LoadExitTime reads the persisted exit time; ok is false when none was
// saved.
func LoadExitTime(store *fsmodel.Store) (t vclock.Time, ok bool) {
	data, complete, ok := store.Open(exitTimeKey)
	if !ok || !complete || len(data) != 8 {
		return 0, false
	}
	t = vclock.Time(binary.LittleEndian.Uint64(data))
	if t < 0 {
		// A corrupt (or hostile) exit-time file with the top bit set would
		// decode as a negative start clock, which the engine rejects;
		// treat it as no saved exit time.
		return 0, false
	}
	return t, true
}

// ClearExitTime removes the persisted exit time (fresh experiment).
func ClearExitTime(store *fsmodel.Store) { store.Delete(exitTimeKey) }
