package switchfab

import (
	"encoding/binary"
	"fmt"
	"testing"

	"repro/internal/flit"
	"repro/internal/link"
	"repro/internal/sim"
)

func TestMeshNodeID(t *testing.T) {
	eng := sim.NewEngine()
	m := NewMesh(eng, 4, 3, DefaultMeshConfig(ModeRXL))
	if m.NodeID(0, 0) != 0 || m.NodeID(3, 0) != 3 || m.NodeID(0, 1) != 4 || m.NodeID(3, 2) != 11 {
		t.Fatal("node IDs wrong")
	}
	// The tag is the router's index: every router sits at its own ID and
	// no tag past the last node names one.
	if len(m.Routers) != 12 {
		t.Fatalf("%d routers, want 12", len(m.Routers))
	}
	for x := 0; x < 4; x++ {
		for y := 0; y < 3; y++ {
			if got, want := m.Routers[m.NodeID(x, y)].Name, fmt.Sprintf("R%d.%d", x, y); got != want {
				t.Fatalf("Routers[NodeID(%d,%d)] is %s, want %s", x, y, got, want)
			}
		}
	}
}

func TestMeshGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewMesh(sim.NewEngine(), 17, 16, DefaultMeshConfig(ModeRXL)) // 272 nodes > 256
}

func TestMeshNodeOutOfRangePanics(t *testing.T) {
	eng := sim.NewEngine()
	m := NewMesh(eng, 2, 2, DefaultMeshConfig(ModeRXL))
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	m.NodeID(2, 0)
}

// meshFlow sets up a unidirectional tagged stream between two nodes and
// returns the delivery slice.
func meshFlow(m *Mesh, from, to *MeshNode) (*link.Peer, *[]uint64) {
	tx := from.PeerTo(to.ID)
	rx := to.PeerTo(from.ID)
	var got []uint64
	rx.Deliver = func(p []byte) { got = append(got, binary.BigEndian.Uint64(p)) }
	_ = rx
	return tx, &got
}

// TestMeshCornerToCorner routes a stream across the full diagonal of a
// 4x4 mesh (6 hops) and checks exactly-once in-order delivery.
func TestMeshCornerToCorner(t *testing.T) {
	for _, mode := range []Mode{ModeCXL, ModeRXL} {
		proto := link.ProtocolCXLNoPiggyback
		if mode == ModeRXL {
			proto = link.ProtocolRXL
		}
		t.Run(mode.String(), func(t *testing.T) {
			eng := sim.NewEngine()
			m := NewMesh(eng, 4, 4, DefaultMeshConfig(mode))
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
			// The diagonal crosses 7 routers (4 east + 3 south hops).
			if st.FlitsIn == 0 {
				t.Error("mesh never saw traffic")
			}
		})
	}
}

// TestMeshAllToAllRXL drives flows between every ordered pair of a 3x3
// mesh simultaneously.
func TestMeshAllToAllRXL(t *testing.T) {
	eng := sim.NewEngine()
	m := NewMesh(eng, 3, 3, DefaultMeshConfig(ModeRXL))

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

// TestMeshRXLUnderBER: a multi-hop NoC path under live error injection
// still delivers exactly-once in order — the paper's future-work claim
// that ISN extends to NoC.
func TestMeshRXLUnderBER(t *testing.T) {
	eng := sim.NewEngine()
	cfg := DefaultMeshConfig(ModeRXL)
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
	st := m.TotalStats()
	t.Logf("mesh under BER: corrected=%d drops=%d", st.CorrectedFlits, st.DroppedUncorrectable)
}

// TestMeshMidRouteDropRXLRecovers: an uncorrectable corruption at a
// middle router is silently dropped; the ISN check at the endpoint
// detects and repairs it across 6 hops.
func TestMeshMidRouteDropRXLRecovers(t *testing.T) {
	eng := sim.NewEngine()
	m := NewMesh(eng, 4, 4, DefaultMeshConfig(ModeRXL))
	a := NewMeshNode(m, 0, 0, link.DefaultConfig(link.ProtocolRXL))
	b := NewMeshNode(m, 3, 3, link.DefaultConfig(link.ProtocolRXL))
	tx, got := meshFlow(m, a, b)

	// Corrupt one data flit beyond FEC repair on the hop into router
	// (2,0); that router's ingress decode flags it uncorrectable and
	// silently drops it.
	seen := 0
	m.InterRouterWire(1, 0, 2, 0).FaultHook = func(f *flit.Flit) bool {
		if f.Header().Type == flit.TypeData {
			seen++
			if seen == 4 {
				f.Raw[30] ^= 0xFF
				f.Raw[33] ^= 0xFF
			}
		}
		return false
	}

	const n = 50
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
	if m.Routers[m.NodeID(2, 0)].Stats.DroppedUncorrectable != 1 {
		t.Errorf("center router drops = %d, want 1", m.Routers[m.NodeID(2, 0)].Stats.DroppedUncorrectable)
	}
}

func BenchmarkMeshDiagonalRXL(b *testing.B) {
	eng := sim.NewEngine()
	m := NewMesh(eng, 4, 4, DefaultMeshConfig(ModeRXL))
	a := NewMeshNode(m, 0, 0, link.DefaultConfig(link.ProtocolRXL))
	dst := NewMeshNode(m, 3, 3, link.DefaultConfig(link.ProtocolRXL))
	tx := a.PeerTo(dst.ID)
	delivered := 0
	dst.PeerTo(a.ID).Deliver = func([]byte) { delivered++ }
	payload := make([]byte, 16)
	b.SetBytes(flit.Size)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx.Submit(payload)
		if tx.Queued() > 256 {
			eng.Run()
		}
	}
	eng.Run()
	if delivered != b.N {
		b.Fatalf("delivered %d of %d", delivered, b.N)
	}
}

func ExampleMesh() {
	eng := sim.NewEngine()
	m := NewMesh(eng, 2, 2, DefaultMeshConfig(ModeRXL))
	a := NewMeshNode(m, 0, 0, link.DefaultConfig(link.ProtocolRXL))
	b := NewMeshNode(m, 1, 1, link.DefaultConfig(link.ProtocolRXL))
	tx := a.PeerTo(b.ID)
	b.PeerTo(a.ID).Deliver = func(p []byte) {
		fmt.Println("tag", binary.BigEndian.Uint64(p))
	}
	tx.Submit(tagged(7))
	eng.Run()
	// Output: tag 7
}

// TestMeshWalksRecycle: at a BER where most traversals are struck, each
// struck flit on an express-eligible route walks its route hop by hop. A
// walk ends when its flit is delivered or dropped, and the mesh reuses
// ended walks, so after warm-up new walks come from the free list and the
// walks ever made stay bounded by how many were in flight at once, not by
// how many flits were struck.
func TestMeshWalksRecycle(t *testing.T) {
	eng := sim.NewEngine()
	cfg := DefaultMeshConfig(ModeRXL)
	cfg.BER = 1e-4
	cfg.BurstProb = 0.4
	cfg.Seed = 7
	m := NewMesh(eng, 4, 4, cfg)
	a := NewMeshNode(m, 0, 0, link.DefaultConfig(link.ProtocolRXL))
	b := NewMeshNode(m, 3, 3, link.DefaultConfig(link.ProtocolRXL))
	tx, got := meshFlow(m, a, b)
	stream := func(from, n uint64) {
		for i := from; i < from+n; i++ {
			tx.Submit(tagged(i))
		}
		eng.Run()
	}

	const n = 2000
	stream(0, n)
	warm := make(map[*meshWalk]bool, len(m.walks))
	for _, wk := range m.walks {
		warm[wk] = true
	}
	before := m.ExpressFallbacks
	stream(n, n)
	walked := m.ExpressFallbacks - before

	if uint64(len(*got)) != 2*n {
		t.Fatalf("delivered %d of %d", len(*got), 2*n)
	}
	fresh := 0
	for _, wk := range m.walks {
		if !warm[wk] {
			fresh++
		}
		if wk.f != nil || wk.rt != nil {
			t.Fatal("an ended walk still holds its flit or route")
		}
	}
	t.Logf("%d struck traversals after warm-up, %d walks made in warm-up, %d after", walked, len(warm), fresh)
	if walked < n/10 {
		t.Fatalf("only %d struck traversals after warm-up; the BER no longer exercises walks", walked)
	}
	if fresh > len(warm)/4 {
		t.Errorf("%d struck traversals after warm-up made %d new walks; %d warm walks were free", walked, fresh, len(warm))
	}
}
