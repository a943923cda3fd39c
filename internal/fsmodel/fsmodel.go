// Package fsmodel provides the simulated parallel file system used for
// application-level checkpoint/restart. It has two halves:
//
//   - Store: the persistent contents of the simulated file system. A Store
//     outlives individual simulation runs, so checkpoints written before an
//     abort are visible to the restarted application — exactly like a real
//     parallel file system outliving an application crash. Files written by
//     a process that failed before committing remain in an incomplete state,
//     which is how the paper's "incomplete or corrupted checkpoint" failure
//     modes arise. A file is addressed by a Key: a checkpoint file by its
//     set, iteration and rank, any other file by its plain name. The store
//     keeps each checkpoint set (set, iteration) as one entry holding its
//     files by rank, so the write, probe and delete every rank makes per
//     checkpoint format no name and hash no string. Only file creation and
//     drain scheduling also take a name, which parses into the same key.
//
//   - Model and Hierarchy: the cost model (metadata latency, read/write
//     bandwidth) and the ordered storage tiers that carry one each; a flat
//     file system is a one-tier hierarchy. The paper notes its file system
//     model was a work in progress and excludes checkpoint I/O overhead
//     from the Table II experiments; Model therefore supports a disabled
//     mode in which all operations are free, plus a full cost mode used by
//     the checkpoint-I/O ablation.
package fsmodel

import (
	"fmt"

	"xsim/internal/vclock"
)

// Model is the file-system cost model. The zero Model charges no time for
// any operation (matching the paper's Table II configuration).
type Model struct {
	// MetadataLatency is charged for each open, create, commit, and
	// delete operation.
	MetadataLatency vclock.Duration
	// WriteBandwidth and ReadBandwidth are per-client bandwidths in
	// bytes per second; zero means infinitely fast.
	WriteBandwidth float64
	ReadBandwidth  float64
	// AggregateWriteBandwidth and AggregateReadBandwidth cap the file
	// system's total throughput across all concurrent clients, in bytes
	// per second; zero means unlimited. When n clients write at once
	// (the checkpoint phase), each one's effective bandwidth is the
	// smaller of its per-client bandwidth and the aggregate share — the
	// contention that breaks the zero-cost assumption at 32k ranks.
	AggregateWriteBandwidth float64
	AggregateReadBandwidth  float64
}

// Validate reports a configuration error, if any.
func (m Model) Validate() error {
	if m.MetadataLatency < 0 {
		return fmt.Errorf("fsmodel: MetadataLatency must be non-negative")
	}
	if m.WriteBandwidth < 0 || m.ReadBandwidth < 0 {
		return fmt.Errorf("fsmodel: bandwidths must be non-negative")
	}
	if m.AggregateWriteBandwidth < 0 || m.AggregateReadBandwidth < 0 {
		return fmt.Errorf("fsmodel: aggregate bandwidths must be non-negative")
	}
	return nil
}

// MetadataCost returns the virtual time of one metadata operation.
func (m Model) MetadataCost() vclock.Duration { return m.MetadataLatency }

// WriteCost returns the virtual time of one uncontended client writing n
// bytes.
func (m Model) WriteCost(n int) vclock.Duration { return m.WriteCostAmong(n, 1) }

// ReadCost returns the virtual time of one uncontended client reading n
// bytes.
func (m Model) ReadCost(n int) vclock.Duration { return m.ReadCostAmong(n, 1) }

// WriteCostAmong returns the virtual time of writing n bytes while clients
// processes write concurrently: the per-client bandwidth capped by an even
// share of the aggregate.
func (m Model) WriteCostAmong(n, clients int) vclock.Duration {
	return cost(n, effectiveBW(m.WriteBandwidth, m.AggregateWriteBandwidth, clients))
}

// ReadCostAmong returns the virtual time of reading n bytes while clients
// processes read concurrently.
func (m Model) ReadCostAmong(n, clients int) vclock.Duration {
	return cost(n, effectiveBW(m.ReadBandwidth, m.AggregateReadBandwidth, clients))
}

// effectiveBW combines a per-client bandwidth with an even share of the
// aggregate; zero means unlimited on either axis.
func effectiveBW(perClient, aggregate float64, clients int) float64 {
	bw := perClient
	if aggregate > 0 && clients > 1 {
		share := aggregate / float64(clients)
		if bw == 0 || share < bw {
			bw = share
		}
	}
	return bw
}

// cost converts n bytes at bw bytes/second into virtual time (0 = free).
func cost(n int, bw float64) vclock.Duration {
	if n <= 0 || bw == 0 {
		return 0
	}
	return vclock.FromSeconds(float64(n) / bw)
}

// Tier is one level of a hierarchical checkpoint storage system: its own
// cost model plus the capacity and volatility that distinguish node-local
// memory from a burst buffer from the parallel file system.
type Tier struct {
	// Name labels the tier in reports ("node", "bb", "pfs").
	Name string
	// Model is the tier's cost model (metadata latency, per-client and
	// aggregate bandwidths).
	Model
	// Capacity is the per-owner capacity in bytes (0 = unbounded): a
	// write that would push one rank's resident bytes past it spills to
	// the next tier down.
	Capacity int
	// Volatile marks storage that dies with the owning process —
	// node-local memory. A failed rank's volatile copies (and their
	// in-flight drains) are lost; copies already drained to deeper
	// non-volatile tiers survive.
	Volatile bool
}

// Hierarchy is an ordered storage system, fastest (and most volatile)
// tier first, most durable tier last. A flat file system is a one-tier
// hierarchy; an empty one stands for a single free tier, which the MPI
// world fills in.
type Hierarchy []Tier

// Validate reports a configuration error, if any.
func (h Hierarchy) Validate() error {
	if len(h) == 0 {
		return nil
	}
	for i, t := range h {
		if err := t.Model.Validate(); err != nil {
			return fmt.Errorf("fsmodel: tier %d (%s): %w", i, t.Name, err)
		}
		if t.Capacity < 0 {
			return fmt.Errorf("fsmodel: tier %d (%s): Capacity must be non-negative", i, t.Name)
		}
	}
	last := h[len(h)-1]
	if last.Volatile {
		return fmt.Errorf("fsmodel: the last (most durable) tier must not be volatile")
	}
	if last.Capacity != 0 {
		// PlaceTier spills everything that fits nowhere else to the last
		// tier, so a bound there would never be enforced.
		return fmt.Errorf("fsmodel: the last tier (%s) takes every spill and cannot have a Capacity", last.Name)
	}
	return nil
}

// PaperTieredFS returns the three-tier hierarchy used by the
// checkpoint-I/O ablation, following the node-local → burst-buffer → PFS
// structure of scalable multi-level checkpointing systems: a volatile
// node-local tier (fast, dies with the process), a burst-buffer tier, and
// the parallel file system with a shared aggregate bandwidth that 32k
// concurrent writers must split.
func PaperTieredFS() Hierarchy {
	return Hierarchy{
		{
			Name: "node",
			Model: Model{
				MetadataLatency: 10 * vclock.Microsecond,
				WriteBandwidth:  5e9,
				ReadBandwidth:   5e9,
			},
			Capacity: 4 << 30, // 4 GiB of node memory set aside for checkpoints
			Volatile: true,
		},
		{
			Name: "bb",
			Model: Model{
				MetadataLatency:         100 * vclock.Microsecond,
				WriteBandwidth:          1e9,
				ReadBandwidth:           2e9,
				AggregateWriteBandwidth: 1e12,
				AggregateReadBandwidth:  2e12,
			},
		},
		PaperPFSShared()[0],
	}
}

// PaperPFS returns the one-tier parallel file system used by the paper_io
// Table II variant: 1 ms metadata operations, 1 GB/s writes and 2 GB/s
// reads per client.
func PaperPFS() Hierarchy {
	return Hierarchy{{
		Name: "pfs",
		Model: Model{
			MetadataLatency: vclock.Millisecond,
			WriteBandwidth:  1e9,
			ReadBandwidth:   2e9,
		},
	}}
}

// PaperPFSShared returns the one-tier file system of the I/O ablation's
// flat arm: PaperPFS plus a shared aggregate bandwidth that 32k concurrent
// writers must split. It is also PaperTieredFS's last tier, so the two
// arms differ only in the hierarchy, not in the disk system behind it.
func PaperPFSShared() Hierarchy {
	h := PaperPFS()
	h[0].AggregateWriteBandwidth = 256e9
	h[0].AggregateReadBandwidth = 512e9
	return h
}
