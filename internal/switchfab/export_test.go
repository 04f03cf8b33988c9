package switchfab

import (
	"fmt"

	"repro/internal/link"
)

// This file exports test-only surface to the external switchfab_test
// package as well as to the in-package suites.

// InterRouterWire returns the wire a flit routed from router (x1,y1) to
// the adjacent router (x2,y2) crosses, for targeted fault injection on one
// hop. On a torus the wraparound edges are adjacent too: (W-1,y)→(0,y) is
// that row's East wrap wire, (x,H-1)→(x,0) the column's South one, and
// their reverses West/North.
func (m *Mesh) InterRouterWire(x1, y1, x2, y2 int) *link.Wire {
	var w *link.Wire
	from, to := int(m.NodeID(x1, y1)), int(m.NodeID(x2, y2))
	if d := m.routeDir(from, to); d >= 0 && m.neighbor(from, d) == to {
		w = m.out[from][d]
	}
	if w == nil {
		panic(fmt.Sprintf("switchfab: (%d,%d)-(%d,%d) are not adjacent mesh routers", x1, y1, x2, y2))
	}
	return w
}
