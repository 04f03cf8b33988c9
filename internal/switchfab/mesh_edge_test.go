package switchfab

import (
	"testing"

	"repro/internal/flit"
	"repro/internal/link"
	"repro/internal/sim"
)

func TestMeshWiresCount(t *testing.T) {
	eng := sim.NewEngine()
	m := NewMesh(eng, 3, 2, DefaultMeshConfig(ModeRXL))
	// Inter-router: horizontal 2*2 per row * 2 rows = 8; vertical 2*3 = 6.
	// Node ingress: 6. Total 20.
	if got := len(m.Wires()); got != 20 {
		t.Fatalf("wires = %d, want 20", got)
	}
}

func TestInterRouterWireDirections(t *testing.T) {
	eng := sim.NewEngine()
	m := NewMesh(eng, 3, 3, DefaultMeshConfig(ModeRXL))
	// All four directions from the center must exist and be distinct.
	seen := map[*link.Wire]bool{}
	for _, to := range [][2]int{{2, 1}, {0, 1}, {1, 2}, {1, 0}} {
		w := m.InterRouterWire(1, 1, to[0], to[1])
		if w == nil || seen[w] {
			t.Fatalf("direction to %v missing or duplicated", to)
		}
		seen[w] = true
	}
}

func TestInterRouterWireNonAdjacentPanics(t *testing.T) {
	eng := sim.NewEngine()
	m := NewMesh(eng, 3, 3, DefaultMeshConfig(ModeRXL))
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	m.InterRouterWire(0, 0, 2, 0)
}

func TestAttachNodeNilPanics(t *testing.T) {
	eng := sim.NewEngine()
	m := NewMesh(eng, 2, 2, DefaultMeshConfig(ModeRXL))
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	m.AttachNode(0, 0, nil)
}

// TestMeshRouteCorruptionDropped: a corrupted destination tag pointing
// outside the mesh is dropped with DroppedNoRoute — the misrouting hazard
// the paper cites for forwarding erroneous flits.
func TestMeshRouteCorruptionDropped(t *testing.T) {
	eng := sim.NewEngine()
	m := NewMesh(eng, 2, 2, DefaultMeshConfig(ModeRXL))
	in := m.AttachNode(0, 0, func(*flit.Flit) {})

	f := &flit.Flit{}
	f.Payload()[flit.RouteOffset] = 200 // outside the 4-node mesh
	f.SealRXL(0, flit.NewFEC())
	in.Send(f)
	eng.Run()

	if m.TotalStats().DroppedNoRoute != 1 {
		t.Fatalf("DroppedNoRoute = %d, want 1", m.TotalStats().DroppedNoRoute)
	}
}

// TestMeshUndeliverableLocal: a flit for a node that never attached is
// forwarded into the void without crashing.
func TestMeshUndeliverableLocal(t *testing.T) {
	eng := sim.NewEngine()
	m := NewMesh(eng, 2, 2, DefaultMeshConfig(ModeRXL))
	in := m.AttachNode(0, 0, func(*flit.Flit) {})

	f := &flit.Flit{}
	f.Payload()[flit.RouteOffset] = m.NodeID(1, 1) // valid but unattached
	f.SealRXL(0, flit.NewFEC())
	in.Send(f)
	eng.Run() // must terminate without panic
}

// TestMeshInternalCorruptionRXLDetected: datapath corruption inside a
// mesh router is caught by the end-to-end ISN check, as in the scale-out
// case (Section 6.3 extended to NoC).
func TestMeshInternalCorruptionRXLDetected(t *testing.T) {
	eng := sim.NewEngine()
	m := NewMesh(eng, 3, 1, DefaultMeshConfig(ModeRXL))
	a := NewMeshNode(m, 0, 0, link.DefaultConfig(link.ProtocolRXL))
	b := NewMeshNode(m, 2, 0, link.DefaultConfig(link.ProtocolRXL))
	tx := a.PeerTo(b.ID)
	rx := b.PeerTo(a.ID)

	var payloads [][]byte
	rx.Deliver = func(p []byte) { payloads = append(payloads, append([]byte(nil), p...)) }

	fired := false
	m.Routers[m.NodeID(1, 0)].InternalHook = func(f *flit.Flit) bool {
		if !fired && f.Header().Type == flit.TypeData {
			fired = true
			f.Payload()[5] ^= 0xAA
			return true
		}
		return false
	}

	tx.Submit(tagged(0))
	eng.Run()

	if !fired {
		t.Fatal("internal corruption never injected")
	}
	if len(payloads) != 1 {
		t.Fatalf("delivered %d payloads", len(payloads))
	}
	if payloads[0][5] != 0 {
		t.Fatal("RXL delivered corrupted data through the mesh")
	}
	if rx.Stats.CrcErrors == 0 {
		t.Fatal("ISN never flagged the router-internal corruption")
	}
}

func TestSeedInternalFaultsOnMeshRouter(t *testing.T) {
	eng := sim.NewEngine()
	m := NewMesh(eng, 2, 1, DefaultMeshConfig(ModeRXL))
	m.Routers[m.NodeID(0, 0)].SeedInternalFaults(0.5, nil) // nil rng: must stay inert
	a := NewMeshNode(m, 0, 0, link.DefaultConfig(link.ProtocolRXL))
	b := NewMeshNode(m, 1, 0, link.DefaultConfig(link.ProtocolRXL))
	tx := a.PeerTo(b.ID)
	delivered := 0
	b.PeerTo(a.ID).Deliver = func([]byte) { delivered++ }
	tx.Submit(tagged(1))
	eng.Run()
	if delivered != 1 {
		t.Fatalf("delivered %d", delivered)
	}
	if m.Routers[m.NodeID(0, 0)].Stats.InternalCorruptions != 0 {
		t.Fatal("nil-RNG fault injection corrupted a flit")
	}
}

// TestMeshNodeReleasesUnknownSource: a flit whose source tag names no
// peer of the receiving node ends at the node's demux, so the demux
// recycles it like every other terminal consumer. Had it kept the image,
// each Get below would allocate a fresh flit.
func TestMeshNodeReleasesUnknownSource(t *testing.T) {
	m := NewMesh(sim.NewEngine(), 2, 2, DefaultMeshConfig(ModeRXL))
	n := NewMeshNode(m, 1, 1, link.DefaultConfig(link.ProtocolRXL))
	n.PeerTo(m.NodeID(1, 0))
	deliver := m.localSink[n.ID]
	var pool flit.Pool
	allocs := testing.AllocsPerRun(1000, func() {
		f := pool.Get()
		f.SetRoute(m.NodeID(0, 1), n.ID) // (0,1) has no flow to n
		deliver(f)
	})
	if allocs != 0 {
		t.Fatalf("%v allocations per dropped flit, want 0 (the demux must release it)", allocs)
	}
}

// TestMeshPathStatsContract pins what PathStats promises the differential
// suites: every schedule created so far is listed exactly once, in
// ascending (src, dst) whatever the creation order, including schedules
// whose tags name no node of the mesh; and SetPathBERScale retunes every
// one of them, while schedules created later inherit the scale.
func TestMeshPathStatsContract(t *testing.T) {
	const ber = 1e-3
	cfg := DefaultMeshConfig(ModeRXL)
	cfg.BER = ber
	eng := sim.NewEngine()
	m := NewMesh(eng, 2, 2, cfg)
	in := m.AttachNode(0, 0, func(f *flit.Flit) { flit.Release(f) })
	send := func(src, dst byte) {
		f := &flit.Flit{}
		f.SetRoute(src, dst)
		f.SealRXL(0, flit.NewFEC())
		in.Send(f)
	}
	// Creation order is deliberately unsorted; (0,200) routes nowhere and
	// (255,1) names a source outside the 4-node mesh. (3,0) is sent twice.
	order := [][2]byte{{3, 0}, {0, 200}, {0, 3}, {255, 1}, {1, 2}, {0, 1}, {3, 0}}
	for _, p := range order {
		send(p[0], p[1])
	}
	eng.Run()

	want := [][2]byte{{0, 1}, {0, 3}, {0, 200}, {1, 2}, {3, 0}, {255, 1}}
	stats := m.PathStats()
	if len(stats) != len(want) {
		t.Fatalf("PathStats lists %d schedules, want %d: %+v", len(stats), len(want), stats)
	}
	for i, st := range stats {
		if [2]byte{st.Src, st.Dst} != want[i] {
			t.Errorf("PathStats[%d] = (%d,%d), want (%d,%d)", i, st.Src, st.Dst, want[i][0], want[i][1])
		}
		if st.BitsSeen == 0 {
			t.Errorf("PathStats[%d] (%d,%d) saw no bits", i, st.Src, st.Dst)
		}
	}

	m.SetPathBERScale(8)
	send(2, 0) // created after the scale change
	eng.Run()
	for _, st := range m.PathStats() {
		if got := m.pathSched(st.Src, st.Dst).BER; got != 8*ber {
			t.Errorf("schedule (%d,%d) BER %g after SetPathBERScale(8), want %g", st.Src, st.Dst, got, 8*ber)
		}
	}
	if got := len(m.PathStats()); got != len(want)+1 {
		t.Errorf("PathStats lists %d schedules after one more path, want %d", got, len(want)+1)
	}
}

// TestRouteDirNamesBuiltWire: on every mesh and torus shape the routing
// byte can address, each routing step names a wire NewMesh built — so
// neither the hop-by-hop pipeline nor a route record ever meets a missing
// egress wire. routeDir is -1 exactly at the destination.
func TestRouteDirNamesBuiltWire(t *testing.T) {
	for _, wrap := range []bool{false, true} {
		cfg := DefaultMeshConfig(ModeRXL)
		cfg.Wrap = wrap
		for w := 1; w <= 16; w++ {
			for h := 1; h <= 16 && w*h <= 256; h++ {
				m := NewMesh(sim.NewEngine(), w, h, cfg)
				for cur := range m.Routers {
					for dst := range m.Routers {
						d := m.routeDir(cur, dst)
						switch {
						case cur == dst && d != -1:
							t.Fatalf("wrap=%v %dx%d: routeDir(%d, %d) = %d at the destination", wrap, w, h, cur, dst, d)
						case cur != dst && (d < 0 || m.out[cur][d] == nil):
							t.Fatalf("wrap=%v %dx%d: routeDir(%d, %d) = %d names no built wire", wrap, w, h, cur, dst, d)
						}
					}
				}
			}
		}
	}
}

// TestClaimabilityIsPerRoute: a fault point installed before the run —
// a wire's FaultHook or a router's internal fault point — makes every
// route through it fall back to per-hop forwarding, while a route that
// avoids it still goes express. The mesh is clean (BER 0), so every
// traversal is granted and only claimability decides.
func TestClaimabilityIsPerRoute(t *testing.T) {
	for _, tc := range []struct {
		name    string
		install func(m *Mesh, seen *int)
	}{
		{"wire FaultHook", func(m *Mesh, seen *int) {
			m.InterRouterWire(1, 0, 2, 0).FaultHook = func(*flit.Flit) bool { *seen++; return false }
		}},
		{"router InternalHook", func(m *Mesh, seen *int) {
			m.Routers[m.NodeID(2, 0)].InternalHook = func(*flit.Flit) bool { *seen++; return false }
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := sim.NewEngine()
			m := NewMesh(eng, 4, 4, DefaultMeshConfig(ModeRXL))
			seen := 0
			tc.install(m, &seen)
			delivered := map[byte]int{}
			sink := func(id byte) func(*flit.Flit) {
				return func(f *flit.Flit) { delivered[id]++; flit.Release(f) }
			}
			m.AttachNode(3, 0, sink(m.NodeID(3, 0)))
			m.AttachNode(3, 1, sink(m.NodeID(3, 1)))
			fec := flit.NewFEC()
			stream := func(sx, sy, dx, dy, n int) {
				in := m.AttachNode(sx, sy, func(f *flit.Flit) { flit.Release(f) })
				for i := 0; i < n; i++ {
					f := &flit.Flit{}
					f.SetRoute(m.NodeID(sx, sy), m.NodeID(dx, dy))
					f.SealRXL(uint16(i), fec)
					in.Send(f)
				}
				eng.Run()
			}

			const n = 20
			// (0,0)→(3,0) runs east along row 0, through the faulted point.
			stream(0, 0, 3, 0, n)
			if m.ExpressTraversals != 0 || m.ExpressFallbacks != n {
				t.Fatalf("crossing route: %d express, %d fallbacks; want 0 and %d",
					m.ExpressTraversals, m.ExpressFallbacks, n)
			}
			if seen != n {
				t.Fatalf("the fault point saw %d flits, want %d", seen, n)
			}
			// (0,1)→(3,1) runs along row 1 and never touches it.
			stream(0, 1, 3, 1, n)
			if m.ExpressTraversals != n || m.ExpressFallbacks != n {
				t.Fatalf("avoiding route: %d express, %d fallbacks; want %d and %d",
					m.ExpressTraversals, m.ExpressFallbacks, n, n)
			}
			if seen != n {
				t.Fatalf("the fault point saw %d flits after the avoiding route, want %d", seen, n)
			}
			if delivered[m.NodeID(3, 0)] != n || delivered[m.NodeID(3, 1)] != n {
				t.Fatalf("delivered %v, want %d at each sink", delivered, n)
			}
		})
	}
}
