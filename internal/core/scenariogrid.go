package core

// Scenario experiments: the workload × topology × fault-campaign
// counterpart of Grid. A ScenarioGrid enumerates mesh/torus fabrics
// driven by spatial traffic patterns (internal/workload) under scripted
// fault campaigns; RunScenarioGrid shards the compatible cells across a
// worker pool with the same any-worker-count bit-identity contract as
// RunGrid, and every cell can replay itself differentially — fast path
// against byte-level reference — which is how the expanded differential
// suite and the rxlsim -scan verb pin the scenario layer.

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strconv"

	"repro/internal/link"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Topology kinds.
const (
	TopoMesh  = "mesh"
	TopoTorus = "torus"
)

// Topology selects the fabric shape of a scenario cell.
type Topology struct {
	// Kind is "mesh" (default) or "torus" (wraparound rings, minimal
	// routing).
	Kind string `json:"kind,omitempty"`
	W    int    `json:"w"`
	H    int    `json:"h"`
}

// Name identifies the topology in reports and case names.
func (t Topology) Name() string {
	kind := t.Kind
	if kind == "" {
		kind = TopoMesh
	}
	return fmt.Sprintf("%s%dx%d", kind, t.W, t.H)
}

// Normalized validates the topology and fills the default kind.
func (t Topology) Normalized() (Topology, error) {
	if t.Kind == "" {
		t.Kind = TopoMesh
	}
	if t.Kind != TopoMesh && t.Kind != TopoTorus {
		return t, fmt.Errorf("core: unknown topology kind %q", t.Kind)
	}
	if t.W < 1 || t.H < 1 || t.W*t.H > 256 {
		return t, fmt.Errorf("core: topology %dx%d out of range (need 1..256 nodes)", t.W, t.H)
	}
	return t, nil
}

// ScenarioCell is one fully specified scenario: a link configuration on
// a topology, a spatial workload, and a fault campaign. Cells are
// produced by ScenarioGrid.Cells but stand alone — the differential
// suite runs them directly.
type ScenarioCell struct {
	Cfg      Config
	Topo     Topology
	Workload workload.Spec
	Fault    FaultScript
}

// Name identifies the cell in reports and -scan tables.
func (c ScenarioCell) Name() string {
	return fmt.Sprintf("%s|%s|%s|%s|ber=%g|seed=%d",
		c.Cfg.Protocol, c.Topo.Name(), c.Workload.Name(), c.Fault.Name(), c.Cfg.BER, c.Cfg.Seed)
}

// Compatible reports whether the cell's workload can generate flows on
// its topology (transpose needs square, bit-reverse a power of two, …).
// It depends only on (workload kind, geometry), never on the seed.
func (c ScenarioCell) Compatible() bool {
	_, err := workload.Generate(c.Workload, c.Topo.W, c.Topo.H, 1)
	return !errors.Is(err, workload.ErrIncompatible)
}

// Flows generates the cell's flow set and per-flow payload counts.
// Counts is nil unless the workload is trace-driven replay with recorded
// volumes.
func (c ScenarioCell) Flows() ([]MeshFlow, []int, error) {
	wf, err := workload.Generate(c.Workload, c.Topo.W, c.Topo.H, c.Cfg.Seed)
	if err != nil {
		return nil, nil, err
	}
	flows := make([]MeshFlow, len(wf))
	var counts []int
	if c.Workload.Kind == workload.KindReplay {
		counts = make([]int, len(wf))
	}
	for i, f := range wf {
		flows[i] = MeshFlow{SrcX: f.SrcX, SrcY: f.SrcY, DstX: f.DstX, DstY: f.DstY}
		if counts != nil {
			counts[i] = f.Count
		}
	}
	return flows, counts, nil
}

// Run builds the cell's fabric, applies its fault campaign, and drives n
// payloads per flow (replay counts capped at n so cell cost stays
// bounded by the grid's N).
func (c ScenarioCell) Run(n int) (ScenarioResult, error) {
	if n <= 0 {
		return ScenarioResult{}, fmt.Errorf("core: scenario cell needs n > 0")
	}
	flows, counts, err := c.Flows()
	if err != nil {
		return ScenarioResult{}, err
	}
	fab, err := NewTopologyFabric(c.Cfg, c.Topo)
	if err != nil {
		return ScenarioResult{}, err
	}
	if err := fab.ApplyFault(c.Fault, 0); err != nil {
		return ScenarioResult{}, err
	}
	var res MeshResult
	if counts != nil {
		for i, cnt := range counts {
			if cnt > n {
				counts[i] = n
			}
		}
		res = fab.RunWeighted(flows, counts)
	} else {
		res = fab.RunWorkload(flows, n)
	}
	return ScenarioResult{
		Topology: c.Topo,
		Workload: c.Workload,
		Fault:    c.Fault,
		Result:   res,
	}, nil
}

// RunDifferential runs the cell twice — fast path and byte-level
// reference — and reports whether the full results (stats, failure
// taxonomy, channel accounting, timing) are bit-identical. The Cfg field
// is blanked before comparison since the two runs differ in NoFastPath
// by construction.
func (c ScenarioCell) RunDifferential(n int) (fast, slow ScenarioResult, identical bool, err error) {
	cf := c
	cf.Cfg.NoFastPath = false
	fast, err = cf.Run(n)
	if err != nil {
		return fast, slow, false, err
	}
	cs := c
	cs.Cfg.NoFastPath = true
	slow, err = cs.Run(n)
	if err != nil {
		return fast, slow, false, err
	}
	fr, sr := fast.Result, slow.Result
	fr.Cfg, sr.Cfg = Config{}, Config{}
	return fast, slow, reflect.DeepEqual(fr, sr), nil
}

// ScenarioResult is the accounting of one scenario cell.
type ScenarioResult struct {
	Topology Topology      `json:"topology"`
	Workload workload.Spec `json:"workload"`
	Fault    FaultScript   `json:"fault"`
	Result   MeshResult    `json:"result"`
}

// Clean reports whether every flow of the cell delivered exactly-once,
// in-order, and intact.
func (r ScenarioResult) Clean() bool { return r.Result.Clean() }

// ScenarioGrid enumerates a scenario job set: protocol × topology ×
// workload × fault-campaign × BER × seed. Empty Protocols/Faults/BERs/
// Seeds axes inherit single values from Base (faults default to "none");
// Topologies and Workloads must be explicit — they are what a scenario
// grid is about. Cells whose workload cannot generate flows on their
// topology (transpose on a non-square fabric, …) are skipped during
// enumeration, deterministically.
type ScenarioGrid struct {
	Base       Config          `json:"base"`
	Protocols  []link.Protocol `json:"protocols,omitempty"`
	Topologies []Topology      `json:"topologies"`
	Workloads  []workload.Spec `json:"workloads"`
	Faults     []FaultScript   `json:"faults,omitempty"`
	BERs       []float64       `json:"bers,omitempty"`
	Seeds      []uint64        `json:"seeds,omitempty"`
	// N is the number of payloads offered per flow of each cell.
	N int `json:"n"`
}

// Normalized validates the grid and returns its canonical form: every
// axis element normalized (defaults filled), empty inheritable axes
// replaced by Base values. Two grids enumerating the same cells
// normalize to equal values — the serving layer's cache keys on that.
func (g ScenarioGrid) Normalized() (ScenarioGrid, error) {
	if g.N <= 0 {
		return g, fmt.Errorf("core: scenario grid needs N > 0 payloads per flow")
	}
	if len(g.Topologies) == 0 {
		return g, fmt.Errorf("core: scenario grid needs at least one topology")
	}
	if len(g.Workloads) == 0 {
		return g, fmt.Errorf("core: scenario grid needs at least one workload")
	}
	if len(g.Faults) == 0 {
		g.Faults = []FaultScript{{Kind: FaultNone}}
	}
	var err error
	if g.Topologies, err = normalizeAxis(g.Topologies, Topology.Normalized); err != nil {
		return g, err
	}
	if g.Workloads, err = normalizeAxis(g.Workloads, workload.Spec.Normalized); err != nil {
		return g, err
	}
	if g.Faults, err = normalizeAxis(g.Faults, FaultScript.Normalized); err != nil {
		return g, err
	}
	if len(g.Protocols) == 0 {
		g.Protocols = []link.Protocol{g.Base.Protocol}
	}
	if len(g.BERs) == 0 {
		g.BERs = []float64{g.Base.BER}
	}
	if len(g.Seeds) == 0 {
		g.Seeds = []uint64{g.Base.Seed}
	}
	return g, nil
}

// normalizeAxis returns a normalized copy of one grid axis, or the first
// element's error.
func normalizeAxis[T any](axis []T, normalize func(T) (T, error)) ([]T, error) {
	out := make([]T, len(axis))
	for i, v := range axis {
		nv, err := normalize(v)
		if err != nil {
			return nil, err
		}
		out[i] = nv
	}
	return out, nil
}

// Cells enumerates the compatible cells in deterministic order:
// protocol-major, then topology, workload, fault, BER, seeds innermost.
func (g ScenarioGrid) Cells() ([]ScenarioCell, error) {
	g, err := g.Normalized()
	if err != nil {
		return nil, err
	}
	var cells []ScenarioCell
	for _, proto := range g.Protocols {
		for _, topo := range g.Topologies {
			for _, wl := range g.Workloads {
				probe := ScenarioCell{Topo: topo, Workload: wl}
				if !probe.Compatible() {
					continue
				}
				for _, fault := range g.Faults {
					for _, ber := range g.BERs {
						for _, seed := range g.Seeds {
							cfg := g.Base
							cfg.Protocol = proto
							cfg.BER = ber
							cfg.Seed = seed
							cells = append(cells, ScenarioCell{
								Cfg: cfg, Topo: topo, Workload: wl, Fault: fault,
							})
						}
					}
				}
			}
		}
	}
	if len(cells) == 0 {
		return nil, fmt.Errorf("core: scenario grid has no compatible (topology, workload) cells")
	}
	return cells, nil
}

// RunScenarioGrid runs every compatible cell across the pool's workers
// and returns the results in cell order. Cells whose seed is zero get a
// deterministic per-cell seed from the pool, as in RunGrid; results are
// bit-identical at any worker count.
func RunScenarioGrid(ctx context.Context, pool runner.Pool, g ScenarioGrid) ([]ScenarioResult, error) {
	ng, err := g.Normalized()
	if err != nil {
		return nil, err
	}
	cells, err := ng.Cells()
	if err != nil {
		return nil, err
	}
	return runner.Map(ctx, pool, len(cells), func(ctx context.Context, s runner.Shard) (ScenarioResult, error) {
		cell := cells[s.Index]
		if cell.Cfg.Seed == 0 {
			cell.Cfg.Seed = s.Seed
		}
		return cell.Run(ng.N)
	})
}

// ScenarioCSVHeader is the column set of ScenarioResult.CSVRow.
func ScenarioCSVHeader() []string {
	return []string{
		"protocol", "topology", "workload", "fault", "ber", "seed",
		"flows", "offered", "delivered", "duplicates", "fail_order",
		"fail_data", "missing", "switch_drops", "hook_drops", "elapsed_ns",
	}
}

// CSVRow renders the result as one row under ScenarioCSVHeader.
func (r ScenarioResult) CSVRow() []string {
	sum, offered := r.Result.Totals()
	return []string{
		fmt.Sprint(r.Result.Cfg.Protocol),
		r.Topology.Name(),
		r.Workload.Name(),
		r.Fault.Name(),
		strconv.FormatFloat(r.Result.Cfg.BER, 'g', -1, 64),
		strconv.FormatUint(r.Result.Cfg.Seed, 10),
		strconv.Itoa(len(r.Result.Flows)),
		strconv.Itoa(offered),
		strconv.Itoa(sum.Delivered),
		strconv.Itoa(sum.Duplicates),
		strconv.Itoa(sum.FailOrder),
		strconv.Itoa(sum.FailData),
		strconv.Itoa(sum.Missing),
		strconv.FormatUint(r.Result.Routers.DroppedUncorrectable, 10),
		strconv.FormatUint(r.Result.HookDropped, 10),
		strconv.FormatInt(int64(r.Result.Elapsed/sim.Nanosecond), 10),
	}
}

// ScenarioResultRows renders a result slice for runner.WriteCSV.
func ScenarioResultRows(results []ScenarioResult) [][]string {
	rows := make([][]string, len(results))
	for i, r := range results {
		rows[i] = r.CSVRow()
	}
	return rows
}
