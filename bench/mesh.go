package main

import (
	"crypto/sha256"
	"encoding/json"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/link"
	traffic "repro/internal/workload"
)

// meshWorkload runs scenario cells the way users do: core.ScenarioCell.Run.
// One operation is one cell; the i-th cell's seed — its flow set and its
// error schedules — derives from -seed, so a run walks the same cell
// sequence every time and reports the median cell.
type meshWorkload struct {
	e    *env
	c    *checks
	name string
	n    int // payloads per flow
	// digests holds the result digest of every cell run so far: a cell
	// run again — warm-up then timed, untraced then traced — must
	// reproduce it.
	digests map[int][32]byte
	// first is cell 0's result with the traced run's engine event count
	// and allocation deltas: the source of the exact layer counts, so they
	// do not depend on how many cells fit the window.
	first   core.MeshResult
	firstEv uint64
	// heap growth around cell 0's untraced run
	firstAllocBytes, firstMallocs, firstGCPauseNS uint64
}

// Payloads per flow at -scale 1: a tenth of the sizes ISSUE 11 measured,
// so that a cell takes ~0.4 s and a 10 s window holds a few dozen.
var meshPayloads = map[string]int{"mesh_clean": 6000, "mesh_storm": 2000, "mesh_bytelevel": 1000}

func newMesh(name string, e *env, c *checks) *meshWorkload {
	return &meshWorkload{e: e, c: c, name: name, n: e.scaled(meshPayloads[name], 20), digests: map[int][32]byte{}}
}

// cell is the i-th scenario cell of the workload.
func (w *meshWorkload) cell(i int) core.ScenarioCell {
	c := core.ScenarioCell{
		Cfg:      core.Config{Protocol: link.ProtocolRXL, BER: 1e-6, BurstProb: 0.4, Seed: derive(w.e.seed, "mesh-cell", i)},
		Topo:     core.Topology{Kind: core.TopoMesh, W: 8, H: 8},
		Workload: traffic.Spec{Kind: traffic.KindUniform, Flows: 16},
	}
	switch w.name {
	case "mesh_storm":
		c.Topo.Kind = core.TopoTorus
		c.Cfg.BER = 1e-5
		c.Fault = core.FaultScript{Kind: core.FaultStorm}
	case "mesh_bytelevel":
		c.Cfg.NoFastPath = true
	}
	return c
}

func (w *meshWorkload) setup() error {
	_, err := w.op(0, nil)
	return err
}

func (w *meshWorkload) op(i int, rec *recorder) (opStat, error) {
	cell := w.cell(i)
	var st opStat
	var res core.ScenarioResult
	var err error
	if rec == nil {
		var before, after runtime.MemStats
		if i == 0 {
			runtime.ReadMemStats(&before)
		}
		t0 := time.Now()
		res, err = cell.Run(w.n)
		st.dur = time.Since(t0)
		if i == 0 {
			runtime.ReadMemStats(&after)
			w.firstAllocBytes = after.TotalAlloc - before.TotalAlloc
			w.firstMallocs = after.Mallocs - before.Mallocs
			w.firstGCPauseNS = after.PauseTotalNs - before.PauseTotalNs
		}
	} else {
		res, err = w.runTraced(cell, rec, &st)
	}
	if err != nil {
		return st, err
	}
	if w.e.hooks.meshResult != nil {
		w.e.hooks.meshResult(&res)
	}
	if i == 0 {
		w.first = res.Result
		if rec != nil {
			w.firstEv = uint64(st.samples["sim.executed"][0])
		}
	}
	for j, fc := range res.Result.PerFlow {
		w.c.check(fc.Clean() && fc.Delivered == w.n, "%s cell %d flow %d: not exactly-once in-order intact: %+v", w.name, i, j, fc)
		st.units += float64(fc.Delivered)
	}
	b, err := json.Marshal(res)
	if err != nil {
		return st, err
	}
	d := sha256.Sum256(b)
	if prev, seen := w.digests[i]; seen {
		w.c.check(prev == d, "%s cell %d: result differs from its earlier run (traced=%v)", w.name, i, rec != nil)
	}
	w.digests[i] = d
	return st, nil
}

// runTraced is ScenarioCell.Run unrolled through the same public calls,
// with a span around each layer boundary.
func (w *meshWorkload) runTraced(c core.ScenarioCell, rec *recorder, st *opStat) (core.ScenarioResult, error) {
	root := rec.start(0, "core.cell")
	timed := func(name string, fn func()) {
		id := rec.start(root, name)
		fn()
		st.sample(name, rec.end(id).Seconds())
	}

	var flows []core.MeshFlow
	var err error
	timed("workload.generate", func() { flows, _, err = c.Flows() })
	if err != nil {
		return core.ScenarioResult{}, err
	}
	var fab *core.MeshFabric
	txs := make([]*link.Peer, len(flows))
	rxs := make([]*link.Peer, len(flows))
	cols := make([]*core.Collector, len(flows))
	timed("core.build", func() {
		if fab, err = core.NewTopologyFabric(c.Cfg, c.Topo); err != nil {
			return
		}
		if err = fab.ApplyFault(c.Fault, 0); err != nil {
			return
		}
		for i, fl := range flows {
			src, dst := fab.Node(fl.SrcX, fl.SrcY), fab.Node(fl.DstX, fl.DstY)
			txs[i], rxs[i] = src.PeerTo(dst.ID), dst.PeerTo(src.ID)
			cols[i] = core.NewCollector(w.n)
			rxs[i].Deliver = cols[i].Deliver
		}
	})
	if err != nil {
		return core.ScenarioResult{}, err
	}
	timed("link.submit", func() {
		for i := 0; i < w.n; i++ {
			for _, tx := range txs {
				tx.Submit(core.SealedPayload(uint64(i)))
			}
		}
	})
	timed("sim.drain", fab.Run)
	var res core.MeshResult
	timed("core.collect", func() {
		res = core.MeshResult{
			Cfg: fab.Cfg, W: fab.W, H: fab.H,
			Flows:             flows,
			Offered:           w.n,
			Routers:           fab.Mesh.TotalStats(),
			Paths:             fab.Mesh.PathStats(),
			QueuePeaks:        fab.Mesh.NodeQueuePeaks(),
			ExpressTraversals: fab.Mesh.ExpressTraversals,
			ExpressFallbacks:  fab.Mesh.ExpressFallbacks,
			HookDropped:       fab.Mesh.HookDrops(),
			Elapsed:           fab.Eng.Now(),
		}
		for i := range flows {
			res.PerFlow = append(res.PerFlow, cols[i].Finish())
			res.TxStats = append(res.TxStats, txs[i].Stats)
			res.RxStats = append(res.RxStats, rxs[i].Stats)
		}
	})
	st.dur = rec.end(root)
	st.sample("sim.executed", float64(fab.Eng.Executed))
	return core.ScenarioResult{Topology: c.Topo, Workload: c.Workload, Fault: c.Fault, Result: res}, nil
}

func (w *meshWorkload) latenciesMS(ops []opStat) []float64 { return durationsMS(ops) }

func (w *meshWorkload) verify() error { return nil }

func (w *meshWorkload) close() {}

// meshTotals are the operation counts of one cell's result.
type meshTotals struct {
	delivered, wireFlits, received, retx, timeouts, endpointCorrected float64
}

func totals(r core.MeshResult) meshTotals {
	var t meshTotals
	for i := range r.Flows {
		t.delivered += float64(r.PerFlow[i].Delivered)
		for _, s := range []link.Stats{r.TxStats[i], r.RxStats[i]} {
			t.wireFlits += float64(s.FlitsSent)
			t.received += float64(s.FlitsReceived)
			t.retx += float64(s.Retransmissions)
			t.timeouts += float64(s.TimeoutRetries)
			t.endpointCorrected += float64(s.FecCorrectedFlits)
		}
	}
	return t
}

func (w *meshWorkload) layer(untraced, traced []opStat, probes map[string]float64) map[string]float64 {
	r := w.first
	t := totals(r)
	traversals := float64(r.ExpressTraversals + r.ExpressFallbacks)
	perK := 1e3 / t.delivered
	flits := untraced[0].units // every cell delivers flows x n
	span := func(name string) float64 { return median(pooled(traced, name)) }

	m := map[string]float64{
		"flits_per_s":      median(throughputs(untraced)),
		"sim_goodput_gbps": t.delivered * 256 * 8 / (float64(r.Elapsed) / 1e3), // sim.Time is picoseconds

		"sim.events_per_flit":           float64(w.firstEv) / t.delivered,
		"sim.drain_ns_per_event":        1e9 * span("sim.drain") / median(pooled(traced, "sim.executed")),
		"link.submit_ns_per_flit":       1e9 * span("link.submit") / flits,
		"link.retx_per_kflit":           t.retx * perK,
		"link.wire_flits_per_delivered": t.wireFlits / t.delivered,
		"link.timeout_retries":          t.timeouts,
		"switchfab.express_share":       float64(r.ExpressTraversals) / traversals,
		"switchfab.corrected_per_kflit": float64(r.Routers.CorrectedFlits) * perK,
		"switchfab.dropped_per_kflit":   float64(r.Routers.DroppedUncorrectable) * perK,
		"core.build_ms":                 1e3 * span("core.build"),
		"core.collect_ms":               1e3 * span("core.collect"),
		"core.alloc_bytes_per_flit":     float64(w.firstAllocBytes) / t.delivered,
		"core.allocs_per_flit":          float64(w.firstMallocs) / t.delivered,
		"core.gc_pause_ms":              float64(w.firstGCPauseNS) / 1e6,
		"workload.generate_us":          1e6 * span("workload.generate"),
	}

	// Reconcile: probe cost x counted operations against cell 0's
	// untraced wall. The remainder is the residual, printed, not hidden.
	var struck float64
	for _, p := range r.Paths {
		struck += float64(p.UnitsTouched)
	}
	corrected := float64(r.Routers.CorrectedFlits) + t.endpointCorrected
	var kernelNS float64
	if r.Cfg.NoFastPath {
		// Byte level: every transmission seals, every router decodes and
		// re-encodes, every reception decodes and checks.
		kernelNS = t.wireFlits*probes["flit.seal_rxl_ns"] +
			float64(r.Routers.FlitsIn)*(probes["rs.verify_clean_ns"]+probes["rs.encode_ns"]) +
			t.received*probes["flit.decode_check_ns"] +
			corrected*(probes["rs.decode_1err_ns"]-probes["rs.verify_clean_ns"])
	} else {
		// Fast path: only struck crossings materialize and decode, and
		// retransmissions seal eagerly. Re-checks of an already dirty
		// flit further down its route are not counted: a lower bound.
		kernelNS = struck*(probes["flit.materialize_ns"]+probes["rs.decode_1err_ns"]) +
			t.retx*probes["flit.seal_rxl_ns"]
	}
	engineNS := float64(w.firstEv)*probes["sim.event_monotone_ns"] + traversals*probes["phy.grant_ns"]
	wallNS := float64(untraced[0].dur.Nanoseconds())
	m["bench.kernel_share"] = kernelNS / wallNS
	m["bench.engine_share"] = engineNS / wallNS
	m["bench.residual_share"] = 1 - (kernelNS+engineNS)/wallNS
	return m
}
