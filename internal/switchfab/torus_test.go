package switchfab

import (
	"testing"

	"repro/internal/link"
	"repro/internal/sim"
)

func torusConfig(mode Mode) MeshConfig {
	cfg := DefaultMeshConfig(mode)
	cfg.Wrap = true
	return cfg
}

// TestTorusHops pins the minimal-ring hop arithmetic: wraparound halves
// the worst-case distance, exact ties break toward east/south (+1), and
// Wrap=false reproduces plain Manhattan distances.
func TestTorusHops(t *testing.T) {
	eng := sim.NewEngine()
	tor := NewMesh(eng, 4, 4, torusConfig(ModeRXL))
	mesh := NewMesh(sim.NewEngine(), 4, 4, DefaultMeshConfig(ModeRXL))

	cases := []struct {
		sx, sy, dx, dy int
		torus, mesh    int
	}{
		{0, 0, 3, 3, 3, 7}, // corner diagonal: 1 wrap hop per axis
		{0, 0, 1, 0, 2, 2}, // direct neighbor unchanged
		{0, 0, 2, 0, 3, 3}, // exact tie (dist 2 both ways): same count
		{1, 2, 1, 2, 1, 1}, // self: injection hop only
		{3, 0, 0, 0, 2, 4}, // row wrap
		{0, 3, 0, 0, 2, 4}, // column wrap
	}
	for _, c := range cases {
		if got := tor.HopsBetween(c.sx, c.sy, c.dx, c.dy); got != c.torus {
			t.Errorf("torus (%d,%d)->(%d,%d) hops = %d, want %d", c.sx, c.sy, c.dx, c.dy, got, c.torus)
		}
		if got := mesh.HopsBetween(c.sx, c.sy, c.dx, c.dy); got != c.mesh {
			t.Errorf("mesh (%d,%d)->(%d,%d) hops = %d, want %d", c.sx, c.sy, c.dx, c.dy, got, c.mesh)
		}
	}

	// Tie-break direction: distance 2 on a 4-ring routes east/south.
	if s := tor.dimStep(0, 2, 4); s != 1 {
		t.Errorf("tie-break step = %d, want +1 (east/south)", s)
	}
	if s := tor.dimStep(3, 1, 4); s != 1 {
		t.Errorf("wrap-forward step = %d, want +1", s)
	}
	if s := tor.dimStep(0, 3, 4); s != -1 {
		t.Errorf("wrap-backward step = %d, want -1", s)
	}
}

// TestTorusCornerToCorner routes the full diagonal of a 4x4 torus — two
// wrap hops instead of six interior ones — and checks exactly-once
// in-order delivery in both modes.
func TestTorusCornerToCorner(t *testing.T) {
	for _, mode := range []Mode{ModeCXL, ModeRXL} {
		proto := link.ProtocolCXLNoPiggyback
		if mode == ModeRXL {
			proto = link.ProtocolRXL
		}
		t.Run(mode.String(), func(t *testing.T) {
			eng := sim.NewEngine()
			m := NewMesh(eng, 4, 4, torusConfig(mode))
			a := NewMeshNode(m, 0, 0, link.DefaultConfig(proto))
			b := NewMeshNode(m, 3, 3, link.DefaultConfig(proto))
			tx, got := meshFlow(m, a, b)

			const n = 300
			for i := uint64(0); i < n; i++ {
				tx.Submit(tagged(i))
			}
			eng.Run()

			if uint64(len(*got)) != n {
				t.Fatalf("delivered %d of %d", len(*got), n)
			}
			for i, v := range *got {
				if v != uint64(i) {
					t.Fatalf("delivery %d has tag %d", i, v)
				}
			}
			st := m.TotalStats()
			if st.DroppedNoRoute != 0 {
				t.Errorf("%d flits misrouted", st.DroppedNoRoute)
			}
			// The minimal route crosses only the two corner-adjacent
			// routers: (0,0) west-wraps to (3,0), then north-wraps to
			// (3,3). Interior routers never forward.
			if fwd := m.Routers[m.NodeID(1, 1)].Stats.Forwarded; fwd != 0 {
				t.Errorf("interior router forwarded %d flits on a wrap route", fwd)
			}
			if fwd := m.Routers[m.NodeID(3, 0)].Stats.Forwarded; fwd == 0 && m.Routers[m.NodeID(0, 3)].Stats.Forwarded == 0 {
				t.Error("no wrap-corner router forwarded traffic")
			}
		})
	}
}

// TestTorusAllToAllRXL drives flows between every ordered pair of a 3x3
// torus simultaneously — every wrap wire carries traffic.
func TestTorusAllToAllRXL(t *testing.T) {
	eng := sim.NewEngine()
	m := NewMesh(eng, 3, 3, torusConfig(ModeRXL))

	nodes := make([]*MeshNode, 0, 9)
	for y := 0; y < 3; y++ {
		for x := 0; x < 3; x++ {
			nodes = append(nodes, NewMeshNode(m, x, y, link.DefaultConfig(link.ProtocolRXL)))
		}
	}

	type flow struct {
		tx  *link.Peer
		got *[]uint64
	}
	var flows []flow
	for _, a := range nodes {
		for _, b := range nodes {
			if a == b {
				continue
			}
			tx, got := meshFlow(m, a, b)
			flows = append(flows, flow{tx, got})
		}
	}

	const n = 25
	for i := uint64(0); i < n; i++ {
		for _, f := range flows {
			f.tx.Submit(tagged(i))
		}
	}
	eng.Run()

	for fi, f := range flows {
		if uint64(len(*f.got)) != n {
			t.Fatalf("flow %d delivered %d of %d", fi, len(*f.got), n)
		}
		for i, v := range *f.got {
			if v != uint64(i) {
				t.Fatalf("flow %d delivery %d has tag %d", fi, i, v)
			}
		}
	}
}

// TestTorusRXLUnderBER: wrap routes under live error injection still
// deliver exactly-once in order.
func TestTorusRXLUnderBER(t *testing.T) {
	eng := sim.NewEngine()
	cfg := torusConfig(ModeRXL)
	cfg.BER = 1e-5
	cfg.BurstProb = 0.4
	cfg.Seed = 31
	m := NewMesh(eng, 4, 4, cfg)
	a := NewMeshNode(m, 0, 0, link.DefaultConfig(link.ProtocolRXL))
	b := NewMeshNode(m, 3, 3, link.DefaultConfig(link.ProtocolRXL))
	tx, got := meshFlow(m, a, b)

	const n = 2000
	for i := uint64(0); i < n; i++ {
		tx.Submit(tagged(i))
	}
	eng.Run()

	if uint64(len(*got)) != n {
		t.Fatalf("delivered %d of %d", len(*got), n)
	}
	for i, v := range *got {
		if v != uint64(i) {
			t.Fatalf("delivery %d has tag %d", i, v)
		}
	}
}

// TestTorusInterRouterWire: wrap edges are addressable for targeted fault
// injection, non-adjacent pairs still panic, and plain meshes reject wrap
// pairs.
func TestTorusInterRouterWire(t *testing.T) {
	eng := sim.NewEngine()
	m := NewMesh(eng, 4, 3, torusConfig(ModeRXL))
	for _, c := range [][4]int{
		{3, 1, 0, 1}, // east wrap
		{0, 1, 3, 1}, // west wrap
		{1, 2, 1, 0}, // south wrap
		{1, 0, 1, 2}, // north wrap
		{1, 1, 2, 1}, // interior edge still works
	} {
		if m.InterRouterWire(c[0], c[1], c[2], c[3]) == nil {
			t.Errorf("wire (%d,%d)->(%d,%d) missing", c[0], c[1], c[2], c[3])
		}
	}

	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		f()
	}
	// Two wrap hops away is not adjacent.
	mustPanic("torus non-adjacent", func() { m.InterRouterWire(0, 0, 2, 0) })
	// A plain mesh has no wrap wires.
	plain := NewMesh(sim.NewEngine(), 4, 3, DefaultMeshConfig(ModeRXL))
	mustPanic("mesh wrap pair", func() { plain.InterRouterWire(3, 1, 0, 1) })
	_ = eng
}

// TestSetPathBERScale: scaling path schedules retunes existing channels
// and steers later-created ones; scale 1 restores the configured rate.
func TestSetPathBERScale(t *testing.T) {
	eng := sim.NewEngine()
	cfg := torusConfig(ModeRXL)
	cfg.BER = 1e-6
	cfg.Seed = 7
	m := NewMesh(eng, 2, 2, cfg)

	base, factor := float64(1e-6), float64(100)
	scaled := base * factor // the exact float64 product the mesh computes
	existing := m.pathSched(0, 3)
	m.SetPathBERScale(100)
	if got := existing.BER; got != scaled {
		t.Errorf("existing schedule BER = %g, want %g", got, scaled)
	}
	created := m.pathSched(3, 0)
	if got := created.BER; got != scaled {
		t.Errorf("new schedule BER = %g, want %g", got, scaled)
	}
	m.SetPathBERScale(1)
	if got := existing.BER; got != 1e-6 {
		t.Errorf("restored BER = %g, want 1e-6", got)
	}

	// Clean meshes have no schedules to scale; the call is a no-op.
	clean := NewMesh(sim.NewEngine(), 2, 2, torusConfig(ModeRXL))
	clean.SetPathBERScale(10)

	defer func() {
		if recover() == nil {
			t.Error("non-positive scale: no panic")
		}
	}()
	m.SetPathBERScale(0)
}
