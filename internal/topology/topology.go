// Package topology models the interconnect topologies of simulated HPC
// systems. The paper's evaluation uses a 32×32×32 3-D wrapped torus with one
// simulated MPI rank per compute node; the network model charges per-hop
// latency along dimension-ordered routes.
package topology

import "fmt"

// Topology maps node identifiers to route lengths. Node identifiers equal
// simulated MPI ranks when one rank is placed per node (the paper's
// configuration, assuming an MPI+X programming model inside the node).
type Topology interface {
	// Nodes returns the total number of nodes.
	Nodes() int
	// Hops returns the number of links a message from src to dst
	// traverses under the topology's routing (0 for src == dst).
	Hops(src, dst int) int
	// Name returns a short human-readable description.
	Name() string
}

// Torus3D is a 3-dimensional wrapped torus with dimension-ordered routing.
type Torus3D struct {
	X, Y, Z int
}

// NewTorus3D returns an x×y×z wrapped torus. It panics if any dimension is
// not positive (a construction-time programming error).
func NewTorus3D(x, y, z int) *Torus3D {
	if x <= 0 || y <= 0 || z <= 0 {
		panic(fmt.Sprintf("topology: invalid torus dimensions %d×%d×%d", x, y, z))
	}
	return &Torus3D{X: x, Y: y, Z: z}
}

// PaperTorus returns the 32×32×32 wrapped torus used in the paper's
// evaluation (32,768 nodes).
func PaperTorus() *Torus3D { return NewTorus3D(32, 32, 32) }

// Nodes implements Topology.
func (t *Torus3D) Nodes() int { return t.X * t.Y * t.Z }

// Coord returns the (x, y, z) coordinate of node id, with x varying fastest.
func (t *Torus3D) Coord(id int) (x, y, z int) {
	x = id % t.X
	y = (id / t.X) % t.Y
	z = id / (t.X * t.Y)
	return
}

// ID returns the node identifier of coordinate (x, y, z). Coordinates wrap,
// so negative and out-of-range values are valid (e.g. x = -1 is the last
// column), which makes neighbour arithmetic convenient for applications.
func (t *Torus3D) ID(x, y, z int) int {
	x = wrap(x, t.X)
	y = wrap(y, t.Y)
	z = wrap(z, t.Z)
	return x + y*t.X + z*t.X*t.Y
}

func wrap(v, n int) int {
	v %= n
	if v < 0 {
		v += n
	}
	return v
}

// Hops implements Topology using dimension-ordered (e-cube) routing: the
// route length is the sum of the per-dimension wrapped distances.
func (t *Torus3D) Hops(src, dst int) int {
	if src == dst {
		return 0
	}
	sx, sy, sz := t.Coord(src)
	dx, dy, dz := t.Coord(dst)
	return ringDist(sx, dx, t.X) + ringDist(sy, dy, t.Y) + ringDist(sz, dz, t.Z)
}

// ringDist returns the shortest distance between a and b on a ring of n.
func ringDist(a, b, n int) int {
	d := a - b
	if d < 0 {
		d = -d
	}
	if n-d < d {
		d = n - d
	}
	return d
}

// Name implements Topology.
func (t *Torus3D) Name() string { return fmt.Sprintf("%dx%dx%d torus", t.X, t.Y, t.Z) }

// FullyConnected is a crossbar: every pair of distinct nodes is one hop
// apart. It is the simplest model and a useful baseline.
type FullyConnected struct {
	N int
}

// NewFullyConnected returns a crossbar over n nodes. It panics if n is not
// positive.
func NewFullyConnected(n int) *FullyConnected {
	if n <= 0 {
		panic(fmt.Sprintf("topology: invalid node count %d", n))
	}
	return &FullyConnected{N: n}
}

// Nodes implements Topology.
func (f *FullyConnected) Nodes() int { return f.N }

// Hops implements Topology.
func (f *FullyConnected) Hops(src, dst int) int {
	if src == dst {
		return 0
	}
	return 1
}

// Name implements Topology.
func (f *FullyConnected) Name() string { return fmt.Sprintf("fully connected (%d nodes)", f.N) }
