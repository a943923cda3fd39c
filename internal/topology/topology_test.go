package topology

import (
	"testing"
	"testing/quick"
)

func TestTorusCoordIDRoundTrip(t *testing.T) {
	tor := NewTorus3D(4, 3, 2)
	for id := 0; id < tor.Nodes(); id++ {
		x, y, z := tor.Coord(id)
		if got := tor.ID(x, y, z); got != id {
			t.Fatalf("round trip: id %d -> (%d,%d,%d) -> %d", id, x, y, z, got)
		}
	}
}

func TestTorusWrapID(t *testing.T) {
	tor := NewTorus3D(4, 4, 4)
	if tor.ID(-1, 0, 0) != tor.ID(3, 0, 0) {
		t.Error("negative x should wrap")
	}
	if tor.ID(4, 2, 0) != tor.ID(0, 2, 0) {
		t.Error("overflow x should wrap")
	}
	if tor.ID(0, -1, 5) != tor.ID(0, 3, 1) {
		t.Error("y/z wrap broken")
	}
}

func TestTorusHops(t *testing.T) {
	tor := NewTorus3D(32, 32, 32)
	if h := tor.Hops(0, 0); h != 0 {
		t.Errorf("self hops = %d", h)
	}
	// Neighbours in each dimension are 1 hop.
	if h := tor.Hops(tor.ID(0, 0, 0), tor.ID(1, 0, 0)); h != 1 {
		t.Errorf("x neighbour hops = %d", h)
	}
	// Wrap-around: (0,0,0) -> (31,0,0) is 1 hop on a ring of 32.
	if h := tor.Hops(tor.ID(0, 0, 0), tor.ID(31, 0, 0)); h != 1 {
		t.Errorf("wrap hops = %d", h)
	}
	// Opposite corner: 16+16+16.
	if h := tor.Hops(tor.ID(0, 0, 0), tor.ID(16, 16, 16)); h != 48 {
		t.Errorf("diameter path hops = %d, want 48", h)
	}
}

func TestTorusHopsSymmetric(t *testing.T) {
	tor := NewTorus3D(5, 7, 3)
	f := func(a, b uint16) bool {
		s := int(a) % tor.Nodes()
		d := int(b) % tor.Nodes()
		h := tor.Hops(s, d)
		if h != tor.Hops(d, s) {
			return false
		}
		if s == d {
			return h == 0
		}
		return h >= 1 && h <= 5/2+7/2+3/2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTorusTriangleInequality(t *testing.T) {
	tor := NewTorus3D(4, 4, 4)
	f := func(a, b, c uint16) bool {
		x := int(a) % tor.Nodes()
		y := int(b) % tor.Nodes()
		z := int(c) % tor.Nodes()
		return tor.Hops(x, z) <= tor.Hops(x, y)+tor.Hops(y, z)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPaperTorus(t *testing.T) {
	tor := PaperTorus()
	if tor.Nodes() != 32768 {
		t.Fatalf("paper torus nodes = %d, want 32768", tor.Nodes())
	}
	if tor.Name() != "32x32x32 torus" {
		t.Errorf("name = %q", tor.Name())
	}
}

func TestFullyConnected(t *testing.T) {
	fc := NewFullyConnected(10)
	if fc.Nodes() != 10 {
		t.Errorf("nodes = %d", fc.Nodes())
	}
	if fc.Hops(3, 3) != 0 || fc.Hops(3, 7) != 1 {
		t.Error("crossbar hops wrong")
	}
}

func TestInvalidConstruction(t *testing.T) {
	for _, f := range []func(){
		func() { NewTorus3D(0, 1, 1) },
		func() { NewFullyConnected(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("want panic for invalid dimensions")
				}
			}()
			f()
		}()
	}
}
