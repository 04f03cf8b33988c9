package core

import (
	"reflect"
	"testing"

	"repro/internal/link"
	"repro/internal/workload"
)

// TestExpressTimingMatchesHopByHop: on single-flow traffic — where the
// express claim order provably coincides with hop-by-hop wire claims —
// the express path must reproduce the NoExpress run *exactly*: same
// deliveries, same elapsed time, same per-router stats, same queue
// peaks. This is the timing half of the express contract (the
// differential matrix covers the bit-identity half at equal NoExpress).
func TestExpressTimingMatchesHopByHop(t *testing.T) {
	topologies := []Topology{
		{Kind: TopoMesh, W: 3, H: 3},
		{Kind: TopoTorus, W: 3, H: 3},
	}
	for _, topo := range topologies {
		for _, ber := range []float64{0, 1e-5} {
			cell := ScenarioCell{
				Cfg:      Config{Protocol: link.ProtocolRXL, BER: ber, BurstProb: 0.4, Seed: 13},
				Topo:     topo,
				Workload: workload.Spec{Kind: workload.KindUniform, Flows: 1},
			}
			express, err := cell.Run(200)
			if err != nil {
				t.Fatal(err)
			}
			cell.Cfg.NoExpress = true
			hopByHop, err := cell.Run(200)
			if err != nil {
				t.Fatal(err)
			}
			er, hr := express.Result, hopByHop.Result
			if er.ExpressTraversals == 0 {
				t.Errorf("%s ber=%g: express never ran (fallbacks %d)", topo.Kind, ber, er.ExpressFallbacks)
			}
			if hr.ExpressTraversals != 0 || hr.ExpressFallbacks != 0 {
				t.Errorf("%s ber=%g: NoExpress run counted express traversals %d/%d",
					topo.Kind, ber, hr.ExpressTraversals, hr.ExpressFallbacks)
			}
			// Blank the fields that legitimately differ (the config toggle
			// and the express counters); everything else must be identical.
			er.Cfg, hr.Cfg = Config{}, Config{}
			er.ExpressTraversals, er.ExpressFallbacks = 0, 0
			if !reflect.DeepEqual(er, hr) {
				t.Errorf("%s ber=%g: express timing diverges from hop-by-hop:\nexpress   %+v\nhop-by-hop %+v",
					topo.Kind, ber, er, hr)
			}
		}
	}
}

// TestExpressCollapsesEvents is the express floor, by count instead of by
// clock: 20 000 flits across the full diagonal of a 4x4 mesh (7 wire
// crossings) at the paper's operating point, with and without NoExpress.
// The two runs must agree on everything observable — deliveries, stats,
// simulated end time — while the express run dispatches far fewer engine
// events: a granted traversal is one delivery event instead of one per
// hop. The counts are exact and identical on every host and every run;
// the 2.5x bar is the claim, the pair below is what it measures today.
func TestExpressCollapsesEvents(t *testing.T) {
	const flits = 20_000
	const perHopEvents, expressEvents = 182_093, 65_675 // 2.77x
	run := func(noExpress bool) (MeshResult, uint64) {
		m := MustNewMeshFabric(Config{
			Protocol: link.ProtocolRXL, BER: 1e-6, BurstProb: 0.4,
			Seed: 11, NoExpress: noExpress,
		}, 4, 4)
		res := m.RunWorkload([]MeshFlow{{SrcX: 0, SrcY: 0, DstX: 3, DstY: 3}}, flits)
		return res, m.Eng.Executed
	}
	er, eEvents := run(false)
	hr, hEvents := run(true)
	ex, fb := er.ExpressTraversals, er.ExpressFallbacks
	share := float64(ex) / float64(ex+fb)
	t.Logf("engine events for %d flits: per-hop %d, express %d (%.2fx), express share %.3f",
		flits, hEvents, eEvents, float64(hEvents)/float64(eEvents), share)

	if !er.Clean() || er.PerFlow[0].Delivered != flits {
		t.Fatalf("express run not clean: %v", er)
	}
	if share < 0.95 {
		t.Errorf("express share %.3f (%d express, %d fallbacks), want >= 0.95", share, ex, fb)
	}
	// Everything but the toggle and the express counters, Elapsed included.
	er.Cfg, hr.Cfg = Config{}, Config{}
	er.ExpressTraversals, er.ExpressFallbacks = 0, 0
	if !reflect.DeepEqual(er, hr) {
		t.Errorf("express result diverges from per-hop:\nexpress %+v\nper-hop %+v", er, hr)
	}
	if float64(hEvents) < 2.5*float64(eEvents) {
		t.Errorf("per-hop %d events < 2.5 x express %d", hEvents, eEvents)
	}
	if hEvents != perHopEvents || eEvents != expressEvents {
		t.Errorf("event counts moved: per-hop %d (was %d), express %d (was %d) — "+
			"exact by construction, so a change here is a model change: update the pair with it",
			hEvents, perHopEvents, eEvents, expressEvents)
	}
}

// TestExpressFallbackDifferential: a flap campaign hooks its wire for the
// whole run, so every traversal crossing it must refuse the express claim
// and fall back to hop-by-hop forwarding — and the fast and byte-level
// paths must still agree bit-exactly on the mixed express/fallback run.
// Seeds are scanned until the seed-chosen flap wire actually lies on the
// single sink's traffic, so the fallback is exercised, not vacuous.
func TestExpressFallbackDifferential(t *testing.T) {
	exercised := false
	for seed := uint64(1); seed <= 8 && !exercised; seed++ {
		cell := ScenarioCell{
			Cfg:      Config{Protocol: link.ProtocolRXL, BER: 1e-6, BurstProb: 0.4, Seed: seed},
			Topo:     Topology{Kind: TopoTorus, W: 3, H: 3},
			Workload: workload.Spec{Kind: workload.KindSingleSink, SinkX: 0, SinkY: 0},
			Fault:    FaultScript{Kind: FaultFlap, StartNS: 100, DurationNS: 150, Flaps: 4, PeriodNS: 400},
		}
		fast, slow, identical, err := cell.RunDifferential(300)
		if err != nil {
			t.Fatal(err)
		}
		if !identical {
			t.Fatalf("seed %d: fast/slow diverge under forced fallback:\nfast: %+v\nslow: %+v",
				seed, fast.Result, slow.Result)
		}
		exercised = fast.Result.ExpressFallbacks > 0 && fast.Result.HookDropped > 0
	}
	if !exercised {
		t.Error("no seed produced express fallbacks on a flit-dropping flap wire")
	}
}

// TestQueuePeaksSurfaceBackpressure: a single-sink incast must show a
// serialization backlog deeper than one flit somewhere near the sink, the
// per-node grid must have the result's [y][x] shape, and the router
// total must be its max.
func TestQueuePeaksSurfaceBackpressure(t *testing.T) {
	cell := ScenarioCell{
		Cfg:      Config{Protocol: link.ProtocolRXL, Seed: 4},
		Topo:     Topology{Kind: TopoMesh, W: 3, H: 3},
		Workload: workload.Spec{Kind: workload.KindSingleSink, SinkX: 1, SinkY: 1},
	}
	res, err := cell.Run(100)
	if err != nil {
		t.Fatal(err)
	}
	r := res.Result
	if len(r.QueuePeaks) != r.H {
		t.Fatalf("QueuePeaks has %d rows, want H=%d", len(r.QueuePeaks), r.H)
	}
	max := uint64(0)
	for y := range r.QueuePeaks {
		if len(r.QueuePeaks[y]) != r.W {
			t.Fatalf("QueuePeaks row %d has %d cols, want W=%d", y, len(r.QueuePeaks[y]), r.W)
		}
		for _, p := range r.QueuePeaks[y] {
			if p > max {
				max = p
			}
		}
	}
	if max < 2 {
		t.Errorf("incast produced no backlog: max queue peak %d", max)
	}
	if r.Routers.QueuePeak != max {
		t.Errorf("Routers.QueuePeak %d != max node peak %d", r.Routers.QueuePeak, max)
	}
}
