package core

import (
	"reflect"
	"testing"

	"repro/internal/link"
	"repro/internal/phy"
	"repro/internal/sim"
	"repro/internal/workload"
)

// assertCellFastSlowIdentical runs one scenario cell with the fast path
// on and off and requires bit-identical accounting: per-flow failure
// taxonomy, endpoint link statistics, router totals, per-path channel
// statistics, hook drops, and simulated end time.
func assertCellFastSlowIdentical(t *testing.T, c ScenarioCell, n int) ScenarioResult {
	t.Helper()
	fast, slow, identical, err := c.RunDifferential(n)
	if err != nil {
		t.Fatal(err)
	}
	if !identical {
		t.Errorf("fast/slow diverge:\nfast: %+v\nslow: %+v", fast.Result, slow.Result)
	}
	return fast
}

// TestMeshFastPathDifferential is the correctness bar of the mesh-wide
// error-event fast path: for identical seeds, FastPath on and off must
// produce bit-identical workload results across the scenario matrix —
// mesh sizes (a 1-wide chain degenerate, the minimal square, the full
// 4x4) × workloads × protocols × BERs spanning error-free, rare-error,
// and retry-heavy operating points. The case list comes from the shared
// ScenarioGrid enumerator instead of hand-rolled flow tables; transpose
// on the non-square 4x1 drops out as incompatible.
func TestMeshFastPathDifferential(t *testing.T) {
	g := ScenarioGrid{
		Base:      Config{BurstProb: 0.4, Seed: 413},
		Protocols: Protocols,
		Topologies: []Topology{
			{W: 4, H: 1},
			{W: 2, H: 2},
			{W: 4, H: 4},
		},
		Workloads: []workload.Spec{
			{Kind: workload.KindUniform, Flows: 3},
			{Kind: workload.KindTranspose},
		},
		BERs: []float64{0, 1e-6, 1e-4},
		N:    200,
	}
	cells, err := g.Cells()
	if err != nil {
		t.Fatal(err)
	}
	// 3 protocols × (3 topologies × 2 workloads − 1 incompatible) × 3 BERs.
	if want := len(Protocols) * 5 * 3; len(cells) != want {
		t.Fatalf("matrix enumerates %d cells, want %d", len(cells), want)
	}
	for _, c := range cells {
		t.Run(c.Name(), func(t *testing.T) {
			assertCellFastSlowIdentical(t, c, g.N)
		})
	}
}

// TestMeshFastPathDifferentialInternalCorruption adds router-internal bit
// flips mid-path, forcing clean granted flits onto the byte-level path
// inside the mesh: the materialized image must be byte-identical to an
// eager seal or verdicts diverge.
func TestMeshFastPathDifferentialInternalCorruption(t *testing.T) {
	for _, proto := range Protocols {
		t.Run(proto.String(), func(t *testing.T) {
			run := func(noFast bool) MeshResult {
				cfg := Config{
					Protocol:   proto,
					BER:        1e-5,
					Seed:       42,
					NoFastPath: noFast,
				}
				m := MustNewMeshFabric(cfg, 3, 3)
				// Deterministic internal fault seeding on every router, so
				// fast and slow draw the same fault points.
				root := phy.NewRNG(7)
				for x := 0; x < m.W; x++ {
					for y := 0; y < m.H; y++ {
						m.Mesh.Routers[m.Mesh.NodeID(x, y)].SeedInternalFaults(2e-3, root.Split())
					}
				}
				flows := []MeshFlow{
					{SrcX: 0, SrcY: 0, DstX: 2, DstY: 2},
					{SrcX: 2, SrcY: 2, DstX: 0, DstY: 0},
				}
				res := m.RunWorkload(flows, 250)
				res.Cfg = Config{}
				return res
			}
			fast, slow := run(false), run(true)
			if !reflect.DeepEqual(fast, slow) {
				t.Errorf("mesh fast/slow diverge under internal corruption:\nfast: %+v\nslow: %+v", fast, slow)
			}
		})
	}
}

// TestMeshStatsAudit pins the per-hop statistics semantics against the
// flit's actual route — the double-count fix: a flit crossing R routers
// increments FlitsIn R times, Forwarded R-1 times (the inter-router
// sends), and DeliveredLocal once. Before the fix the delivery hop was
// counted as a forward, inflating Forwarded by one per delivered flit.
// The audit holds identically on the fast path and the byte-level
// reference.
func TestMeshStatsAudit(t *testing.T) {
	const n = 400
	for _, noFast := range []bool{false, true} {
		name := "fastpath"
		if noFast {
			name = "bytelevel"
		}
		t.Run(name, func(t *testing.T) {
			cfg := Config{Protocol: link.ProtocolRXL, Seed: 5, NoFastPath: noFast}
			m := MustNewMeshFabric(cfg, 4, 4)
			flow := MeshFlow{SrcX: 0, SrcY: 0, DstX: 3, DstY: 3}
			res := m.RunWorkload([]MeshFlow{flow}, n)
			if !res.Clean() {
				t.Fatalf("clean mesh run not clean: %+v", res.PerFlow)
			}

			// Every flit — data forward, control reverse — crosses 7
			// routers on the (0,0)↔(3,3) diagonal. Reverse control
			// traffic: standalone ACKs from the receiver (no NAKs, no
			// retransmissions on a clean run).
			dataFlits := res.TxStats[0].FlitsSent
			ackFlits := res.RxStats[0].FlitsSent
			if res.TxStats[0].Retransmissions != 0 || res.RxStats[0].NakFlitsSent != 0 {
				t.Fatalf("clean run had recovery traffic: %+v", res.TxStats[0])
			}
			total := dataFlits + ackFlits
			const routersOnPath = 7 // 1 + Manhattan distance 6
			st := res.Routers
			if st.FlitsIn != total*routersOnPath {
				t.Errorf("FlitsIn = %d, want %d (%d flits × %d routers)", st.FlitsIn, total*routersOnPath, total, routersOnPath)
			}
			if st.Forwarded != total*(routersOnPath-1) {
				t.Errorf("Forwarded = %d, want %d — delivery hop double-counted as forward", st.Forwarded, total*(routersOnPath-1))
			}
			if st.DeliveredLocal != total {
				t.Errorf("DeliveredLocal = %d, want %d", st.DeliveredLocal, total)
			}
		})
	}
}

// TestMeshStatsAuditZipfHotSpot extends the per-hop statistics audit to
// a generated hot-spot workload: under zipf skew toward node 0, the
// router totals must still satisfy the route-length identities flow by
// flow — DeliveredLocal counts every data and control flit exactly once
// at its terminal router, Forwarded counts routers-on-path − 1 per flit
// — and the sink's router must dominate local deliveries. The audit
// holds identically on the fast path and the byte-level reference.
func TestMeshStatsAuditZipfHotSpot(t *testing.T) {
	const n = 120
	for _, noFast := range []bool{false, true} {
		name := "fastpath"
		if noFast {
			name = "bytelevel"
		}
		t.Run(name, func(t *testing.T) {
			cell := ScenarioCell{
				Cfg:      Config{Protocol: link.ProtocolRXL, Seed: 11, NoFastPath: noFast},
				Topo:     Topology{Kind: TopoMesh, W: 4, H: 4},
				Workload: workload.Spec{Kind: workload.KindZipf, Flows: 10, Skew: 2},
			}
			flows, _, err := cell.Flows()
			if err != nil {
				t.Fatal(err)
			}
			fab, err := NewTopologyFabric(cell.Cfg, cell.Topo)
			if err != nil {
				t.Fatal(err)
			}
			res := fab.RunWorkload(flows, n)
			if !res.Clean() {
				t.Fatalf("clean mesh run not clean: %+v", res.PerFlow)
			}

			// Per-flow identities: data flits cross the forward route's
			// routers, standalone ACKs the reverse route's (same count —
			// XY routing is symmetric in length). No recovery traffic on
			// a clean run.
			var wantIn, wantFwd, wantLocal uint64
			for i, fl := range flows {
				if res.TxStats[i].Retransmissions != 0 || res.RxStats[i].NakFlitsSent != 0 {
					t.Fatalf("flow %d had recovery traffic on a clean run", i)
				}
				routers := uint64(fab.Mesh.HopsBetween(fl.SrcX, fl.SrcY, fl.DstX, fl.DstY))
				total := res.TxStats[i].FlitsSent + res.RxStats[i].FlitsSent
				wantIn += total * routers
				wantFwd += total * (routers - 1)
				wantLocal += total
			}
			st := res.Routers
			if st.FlitsIn != wantIn {
				t.Errorf("FlitsIn = %d, want %d", st.FlitsIn, wantIn)
			}
			if st.Forwarded != wantFwd {
				t.Errorf("Forwarded = %d, want %d", st.Forwarded, wantFwd)
			}
			if st.DeliveredLocal != wantLocal {
				t.Errorf("DeliveredLocal = %d, want %d", st.DeliveredLocal, wantLocal)
			}

			// Hot-spot skew: node 0's router receives the most data
			// deliveries of any router (zipf concentrates destinations
			// there; ACK deliveries at sources cannot overtake it since
			// control flits are coalesced).
			sink := fab.Mesh.Routers[fab.Mesh.NodeID(0, 0)].Stats.DeliveredLocal
			for x := 0; x < 4; x++ {
				for y := 0; y < 4; y++ {
					if x == 0 && y == 0 {
						continue
					}
					if got := fab.Mesh.Routers[fab.Mesh.NodeID(x, y)].Stats.DeliveredLocal; got > sink {
						t.Errorf("router (%d,%d) delivered %d > hot-spot router's %d", x, y, got, sink)
					}
				}
			}
		})
	}
}

// TestMeshWorkloadSpanDrainEquivalence: draining the same mesh workload
// with the engine's bulk Run and with AdvanceTo in steps of an arbitrary
// span gives identical delivery accounting — the engine-level bulk-advance
// determinism surfaced at the fabric layer.
func TestMeshWorkloadSpanDrainEquivalence(t *testing.T) {
	run := func(span sim.Time) MeshResult {
		cfg := Config{Protocol: link.ProtocolRXL, BER: 1e-5, BurstProb: 0.4, Seed: 9}
		m := MustNewMeshFabric(cfg, 3, 3)
		flow := MeshFlow{SrcX: 0, SrcY: 0, DstX: 2, DstY: 2}
		src := m.Node(flow.SrcX, flow.SrcY)
		dst := m.Node(flow.DstX, flow.DstY)
		tx := src.PeerTo(dst.ID)
		col := NewCollector(300)
		dst.PeerTo(src.ID).Deliver = col.Deliver
		for i := 0; i < 300; i++ {
			tx.Submit(SealedPayload(uint64(i)))
		}
		if span > 0 {
			for m.Eng.Pending() > 0 {
				m.Eng.AdvanceTo(m.Eng.Now() + span)
			}
		} else {
			m.Run()
		}
		return MeshResult{
			PerFlow: []FailureCounts{col.Finish()},
			TxStats: []link.Stats{tx.Stats},
			Routers: m.Mesh.TotalStats(),
			Paths:   m.Mesh.PathStats(),
		}
	}
	ref := run(0)
	for _, span := range []sim.Time{1 * sim.Nanosecond, 37 * sim.Nanosecond, 5 * sim.Microsecond} {
		got := run(span)
		if !reflect.DeepEqual(ref, got) {
			t.Errorf("span %d drain diverges:\nrun:   %+v\nspans: %+v", span, ref, got)
		}
	}
}
