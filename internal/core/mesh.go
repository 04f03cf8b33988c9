package core

import (
	"fmt"
	"slices"

	"repro/internal/link"
	"repro/internal/sim"
	"repro/internal/switchfab"
)

// MeshFabric is the 2D-mesh NoC counterpart of Fabric: a W×H
// switchfab.Mesh with lazily attached endpoints, driven by one
// deterministic engine. It is the scenario-wiring layer the rxl.NoC
// facade, the mesh differential suite, and the multi-hop benchmarks sit
// on.
//
// The Config is interpreted mesh-wise: Protocol selects the router stack
// (RXL passes the end-to-end CRC through), BER/BurstProb/Seed drive the
// per-path shared error schedules, Serialization/Propagation override the
// per-hop wire timing, SwitchLatency the router traversal, and NoFastPath
// forces every endpoint onto the byte-level reference path. Levels and
// InternalFlipProb are ignored (inject router faults directly via
// Mesh.Routers).
type MeshFabric struct {
	Cfg  Config
	W, H int
	Eng  *sim.Engine
	// Mesh exposes routers and wires for fault injection and stats.
	Mesh *switchfab.Mesh

	nodes map[[2]int]*switchfab.MeshNode
}

// NewTopologyFabric builds the fabric of a topology: a plain mesh or a
// 2D torus.
func NewTopologyFabric(cfg Config, topo Topology) (*MeshFabric, error) {
	t, err := topo.Normalized()
	if err != nil {
		return nil, err
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	mc := switchfab.DefaultMeshConfig(switchfab.ModeFor(cfg.Protocol))
	mc.BER = cfg.BER
	mc.BurstProb = cfg.BurstProb
	mc.Seed = cfg.Seed
	mc.Wrap = t.Kind == TopoTorus
	mc.NoExpress = cfg.NoExpress
	if cfg.Serialization > 0 {
		mc.Serialization = cfg.Serialization
	}
	if cfg.Propagation > 0 {
		mc.Propagation = cfg.Propagation
	}
	if cfg.SwitchLatency > 0 {
		mc.RouterLatency = cfg.SwitchLatency
	}
	eng := sim.NewEngine()
	return &MeshFabric{
		Cfg:   cfg,
		W:     t.W,
		H:     t.H,
		Eng:   eng,
		Mesh:  switchfab.NewMesh(eng, t.W, t.H, mc),
		nodes: make(map[[2]int]*switchfab.MeshNode),
	}, nil
}

// MustNewMeshFabric builds a w×h mesh fabric, panicking on error.
func MustNewMeshFabric(cfg Config, w, h int) *MeshFabric {
	m, err := NewTopologyFabric(cfg, Topology{Kind: TopoMesh, W: w, H: h})
	if err != nil {
		panic(err)
	}
	return m
}

// Node returns (creating on first use) the endpoint at mesh position
// (x,y), wired with the fabric's link configuration and NoFastPath
// setting.
func (m *MeshFabric) Node(x, y int) *switchfab.MeshNode {
	key := [2]int{x, y}
	if nd, ok := m.nodes[key]; ok {
		return nd
	}
	nd := switchfab.NewMeshNode(m.Mesh, x, y, m.Cfg.linkConfig())
	m.nodes[key] = nd
	return nd
}

// Run drains the event queue.
func (m *MeshFabric) Run() { m.Eng.Run() }

// MeshFlow is one unidirectional stream of a mesh workload.
type MeshFlow struct {
	SrcX, SrcY, DstX, DstY int
}

// MeshResult is the accounting of one mesh workload run: the Section 7.1
// failure taxonomy per flow, per-flow endpoint link statistics, the
// router totals, and the per-path channel accounting.
type MeshResult struct {
	Cfg     Config
	W, H    int
	Flows   []MeshFlow
	Offered int // payloads injected per flow (the maximum, when weighted)
	// PerFlowOffered is the per-flow payload count of weighted workloads
	// (trace-driven replay); nil when every flow offered the same count.
	PerFlowOffered []int

	PerFlow          []FailureCounts
	TxStats, RxStats []link.Stats
	Routers          switchfab.Stats
	Paths            []switchfab.PathStat
	// QueuePeaks is the per-node queue-depth high-water mark, indexed
	// [y][x]: the deepest serialization backlog any wire of that node's
	// router reached, in flits — the backpressure measurement of the
	// single-sink/incast scenarios. Routers.QueuePeak is its mesh-wide
	// max.
	QueuePeaks [][]uint64
	// ExpressTraversals counts traversals collapsed to a single delivery
	// event; ExpressFallbacks counts routable traversals that took
	// per-hop events instead: the path schedule struck the flit (it
	// walks its route hop by hop), or the route could not be claimed up
	// front (a wire with a fault hook, a fault-configured router).
	ExpressTraversals uint64
	ExpressFallbacks  uint64
	// HookDropped counts flits silently dropped by scripted fault hooks
	// (link-flap campaigns) across every wire.
	HookDropped uint64
	Elapsed     sim.Time
}

// Totals sums the failure taxonomy over every flow and counts the
// payloads offered across all flows (per flow for weighted runs).
func (r MeshResult) Totals() (sum FailureCounts, offered int) {
	for i, fc := range r.PerFlow {
		sum.Add(fc)
		if r.PerFlowOffered != nil {
			offered += r.PerFlowOffered[i]
		} else {
			offered += r.Offered
		}
	}
	return sum, offered
}

// Clean reports whether every flow delivered exactly-once, in-order, and
// intact.
func (r MeshResult) Clean() bool {
	sum, _ := r.Totals()
	return sum.Clean()
}

// String summarizes the result on one line.
func (r MeshResult) String() string {
	sum, offered := r.Totals()
	return fmt.Sprintf(
		"%s mesh %dx%d BER=%g: flows=%d offered=%d delivered=%d dup=%d ooo=%d corrupt=%d missing=%d drops=%d t=%dns",
		r.Cfg.Protocol, r.W, r.H, r.Cfg.BER, len(r.Flows), offered,
		sum.Delivered, sum.Duplicates, sum.FailOrder, sum.FailData, sum.Missing, r.Routers.DroppedUncorrectable,
		r.Elapsed/sim.Nanosecond)
}

// RunWorkload drives n payloads through each flow simultaneously
// (submissions interleaved round-robin across flows) and returns the full
// accounting. Equal seeds and configurations give bit-identical results;
// the mesh differential suite relies on that to compare the fast path
// against the byte-level reference.
func (m *MeshFabric) RunWorkload(flows []MeshFlow, n int) MeshResult {
	if n <= 0 {
		panic("core: mesh workload needs n > 0")
	}
	res := m.runWorkload(flows, slices.Repeat([]int{n}, len(flows)))
	res.PerFlowOffered = nil // uniform runs keep the legacy result shape
	return res
}

// RunWeighted is RunWorkload with a per-flow payload count — the
// trace-driven replay shape, where recorded flows carry different
// volumes. Submissions stay round-robin across flows still offering, so
// the congestion interleaving matches RunWorkload's for uniform counts.
func (m *MeshFabric) RunWeighted(flows []MeshFlow, counts []int) MeshResult {
	if len(counts) != len(flows) {
		panic("core: mesh workload counts must match flows")
	}
	for _, c := range counts {
		if c <= 0 {
			panic("core: mesh workload needs every count > 0")
		}
	}
	return m.runWorkload(flows, counts)
}

func (m *MeshFabric) runWorkload(flows []MeshFlow, counts []int) MeshResult {
	if len(flows) == 0 {
		panic("core: mesh workload needs at least one flow")
	}
	txs := make([]*link.Peer, len(flows))
	rxs := make([]*link.Peer, len(flows))
	cols := make([]*Collector, len(flows))
	for i, fl := range flows {
		src := m.Node(fl.SrcX, fl.SrcY)
		dst := m.Node(fl.DstX, fl.DstY)
		txs[i] = src.PeerTo(dst.ID)
		rxs[i] = dst.PeerTo(src.ID)
		cols[i] = NewCollector(counts[i])
		rxs[i].Deliver = cols[i].Deliver
	}
	offer(txs, counts)
	m.Run()

	res := MeshResult{
		Cfg: m.Cfg, W: m.W, H: m.H,
		Flows:             append([]MeshFlow(nil), flows...),
		Offered:           slices.Max(counts),
		PerFlowOffered:    append([]int(nil), counts...),
		Routers:           m.Mesh.TotalStats(),
		Paths:             m.Mesh.PathStats(),
		QueuePeaks:        m.Mesh.NodeQueuePeaks(),
		ExpressTraversals: m.Mesh.ExpressTraversals,
		ExpressFallbacks:  m.Mesh.ExpressFallbacks,
		HookDropped:       m.Mesh.HookDrops(),
		Elapsed:           m.Eng.Now(),
	}
	for i := range flows {
		res.PerFlow = append(res.PerFlow, cols[i].Finish())
		res.TxStats = append(res.TxStats, txs[i].Stats)
		res.RxStats = append(res.RxStats, rxs[i].Stats)
	}
	return res
}
