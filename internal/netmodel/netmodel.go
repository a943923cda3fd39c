// Package netmodel provides the network model of the simulated system. It
// charges virtual communication time based on the topology's route length,
// per-link latency, and link bandwidth, selects the eager or rendezvous
// protocol by message size, and supplies the configurable network
// communication timeout the simulated MPI layer uses for failure detection
// (the paper's detection is purely timeout-based, with each simulated
// network — on-node and system-wide — having its own timeout).
package netmodel

import (
	"fmt"

	"xsim/internal/topology"
	"xsim/internal/vclock"
)

// LinkParams describes one simulated network tier.
type LinkParams struct {
	// Latency is the per-hop link latency.
	Latency vclock.Duration
	// Bandwidth is the link bandwidth in bytes per second.
	Bandwidth float64
	// DetectionTimeout is the communication timeout after which a blocked
	// operation against a failed peer completes in error. The paper makes
	// this configurable per network tier.
	DetectionTimeout vclock.Duration
}

// Model is the complete network model: a topology plus per-tier link
// parameters and protocol selection.
type Model struct {
	// Topo supplies route lengths between nodes.
	Topo topology.Topology
	// System describes links between distinct nodes.
	System LinkParams
	// OnNode describes intra-node communication (src node == dst node).
	OnNode LinkParams
	// EagerThreshold is the largest payload in bytes sent with the eager
	// protocol; larger payloads use the rendezvous protocol. The paper's
	// evaluation sets this to 256 kB.
	EagerThreshold int
	// SoftwareOverhead is the fixed per-message software cost charged to
	// the sender in addition to wire time (MPI stack overhead).
	SoftwareOverhead vclock.Duration
	// InjectBandwidth and EjectBandwidth, when positive, model endpoint
	// contention: a node's NIC injects (ejects) payloads one at a time
	// at these bandwidths in bytes per second, so concurrent senders to
	// one receiver serialise (incast) and one sender's messages queue
	// behind each other. Zero disables contention (the default — the
	// base model is contention-free, like the paper's).
	InjectBandwidth float64
	EjectBandwidth  float64
}

// Paper returns the network model of the paper's simulated system: a
// 32×32×32 wrapped torus, 1 µs link latency, 32 GB/s link bandwidth, 256 kB
// eager threshold, and a 5 s system-wide detection timeout (the paper keeps
// the timeout configurable; 5 s is this repo's default).
func Paper() *Model {
	return &Model{
		Topo: topology.PaperTorus(),
		System: LinkParams{
			Latency:          vclock.Microsecond,
			Bandwidth:        32e9,
			DetectionTimeout: 5 * vclock.Second,
		},
		OnNode: LinkParams{
			Latency:          100 * vclock.Nanosecond,
			Bandwidth:        100e9,
			DetectionTimeout: 1 * vclock.Second,
		},
		EagerThreshold: 256 * 1024,
	}
}

// Validate reports a configuration error, if any.
func (m *Model) Validate() error {
	if m.Topo == nil {
		return fmt.Errorf("netmodel: Topo must be set")
	}
	for _, p := range []struct {
		name string
		lp   LinkParams
	}{{"System", m.System}, {"OnNode", m.OnNode}} {
		if p.lp.Latency < 0 {
			return fmt.Errorf("netmodel: %s.Latency must be non-negative", p.name)
		}
		if p.lp.Bandwidth <= 0 {
			return fmt.Errorf("netmodel: %s.Bandwidth must be positive", p.name)
		}
		if p.lp.DetectionTimeout < 0 {
			return fmt.Errorf("netmodel: %s.DetectionTimeout must be non-negative", p.name)
		}
	}
	if m.EagerThreshold < 0 {
		return fmt.Errorf("netmodel: EagerThreshold must be non-negative")
	}
	if m.SoftwareOverhead < 0 {
		return fmt.Errorf("netmodel: SoftwareOverhead must be non-negative")
	}
	if m.InjectBandwidth < 0 || m.EjectBandwidth < 0 {
		return fmt.Errorf("netmodel: NIC bandwidths must be non-negative")
	}
	return nil
}

// Contended reports whether endpoint contention modelling is enabled.
func (m *Model) Contended() bool { return m.InjectBandwidth > 0 || m.EjectBandwidth > 0 }

// InjectOccupancy returns how long a size-byte payload occupies the
// sender's NIC (zero when injection contention is disabled).
func (m *Model) InjectOccupancy(size int) vclock.Duration {
	if m.InjectBandwidth <= 0 || size <= 0 {
		return 0
	}
	return vclock.FromSeconds(float64(size) / m.InjectBandwidth)
}

// EjectOccupancy returns how long a size-byte payload occupies the
// receiver's NIC (zero when ejection contention is disabled).
func (m *Model) EjectOccupancy(size int) vclock.Duration {
	if m.EjectBandwidth <= 0 || size <= 0 {
		return 0
	}
	return vclock.FromSeconds(float64(size) / m.EjectBandwidth)
}

// tier returns the link parameters governing a src→dst transfer.
func (m *Model) tier(src, dst int) LinkParams {
	if src == dst {
		return m.OnNode
	}
	return m.System
}

// Eager reports whether a payload of size bytes uses the eager protocol.
func (m *Model) Eager(size int) bool { return size <= m.EagerThreshold }

// TransferTime returns the wire time of a size-byte payload from node src
// to node dst: per-hop latency along the route plus serialisation at the
// link bandwidth. Intra-node transfers use the on-node tier with one
// latency charge.
func (m *Model) TransferTime(src, dst, size int) vclock.Duration {
	return m.ControlTime(src, dst) + m.SerializationTime(src, dst, size)
}

// ControlTime returns the wire time of a zero-payload control message
// (rendezvous handshake, acknowledgements) from src to dst: the route's
// latency plus the software overhead. A caller that needs both a message's
// control and transfer time adds SerializationTime to this one, which
// routes the pair once.
func (m *Model) ControlTime(src, dst int) vclock.Duration {
	hops := 1
	if src != dst {
		hops = m.Topo.Hops(src, dst)
	}
	return vclock.Duration(hops)*m.tier(src, dst).Latency + m.SoftwareOverhead
}

// SerializationTime returns the time a size-byte payload takes to cross a
// src→dst link at its bandwidth: TransferTime less ControlTime.
func (m *Model) SerializationTime(src, dst, size int) vclock.Duration {
	if size <= 0 {
		return 0
	}
	return vclock.FromSeconds(float64(size) / m.tier(src, dst).Bandwidth)
}

// SendOverhead returns the time the *sender* is busy injecting a size-byte
// eager message before it may proceed (software overhead plus
// serialisation); the message then propagates without the sender.
// Rendezvous senders instead block until the transfer completes.
func (m *Model) SendOverhead(src, dst, size int) vclock.Duration {
	return m.SoftwareOverhead + m.SerializationTime(src, dst, size)
}

// Timeout returns the failure-detection timeout governing communication
// between src and dst.
func (m *Model) Timeout(src, dst int) vclock.Duration {
	return m.tier(src, dst).DetectionTimeout
}

// String describes the model.
func (m *Model) String() string {
	return fmt.Sprintf("%s, %v/link, %.3g B/s, eager<=%dB, timeout %v",
		m.Topo.Name(), m.System.Latency, m.System.Bandwidth, m.EagerThreshold,
		m.System.DetectionTimeout)
}
