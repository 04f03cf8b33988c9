package service

import (
	"context"
	"encoding/json"
	"testing"

	"repro/internal/core"
	"repro/internal/link"
	"repro/internal/runner"
	"repro/internal/workload"
)

// scenarioSpec is the small scenario-grid fixture of the kind tests:
// both router stacks on a mesh and a torus, zipf and transpose traffic,
// a storm campaign.
func scenarioSpec() JobSpec {
	return JobSpec{
		Kind: KindScenario,
		Seed: 4,
		Scenario: &core.ScenarioGrid{
			Base:      core.Config{Protocol: link.ProtocolRXL, BurstProb: 0.4, Seed: 17},
			Protocols: []link.Protocol{link.ProtocolCXLNoPiggyback, link.ProtocolRXL},
			Topologies: []core.Topology{
				{Kind: core.TopoMesh, W: 3, H: 3},
				{Kind: core.TopoTorus, W: 3, H: 3},
			},
			Workloads: []workload.Spec{
				{Kind: workload.KindZipf, Flows: 4},
				{Kind: workload.KindTranspose},
			},
			Faults: []core.FaultScript{{Kind: core.FaultNone}, {Kind: core.FaultStorm, Factor: 20}},
			BERs:   []float64{1e-5},
			N:      40,
		},
	}
}

// TestScenarioJobMatchesDirect: a served scenario job returns
// byte-identical results to executing the normalized spec directly, and
// a resubmission is a cache hit serving the same bytes — the serving
// contract extended to the scenario kind.
func TestScenarioJobMatchesDirect(t *testing.T) {
	srv := newTestServer(t, Config{ShardBudget: 2})
	c := NewInProcessClient(srv)

	res, err := c.Run(context.Background(), scenarioSpec())
	if err != nil {
		t.Fatal(err)
	}

	norm, err := scenarioSpec().Normalize()
	if err != nil {
		t.Fatal(err)
	}
	direct, err := execute(context.Background(), norm, runner.Pool{Workers: 2, BaseSeed: norm.Seed})
	if err != nil {
		t.Fatal(err)
	}
	if string(res) != string(direct) {
		t.Fatalf("served scenario diverges from direct execution:\nserved %s\ndirect %s", res, direct)
	}

	var results []core.ScenarioResult
	if err := json.Unmarshal(res, &results); err != nil {
		t.Fatal(err)
	}
	cells, err := norm.Scenario.Cells()
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(cells) {
		t.Fatalf("scenario returned %d results for %d cells", len(results), len(cells))
	}
	for i, r := range results {
		if len(r.Result.PerFlow) == 0 {
			t.Fatalf("cell %d (%s) has no per-flow accounting", i, cells[i].Name())
		}
	}

	// Identical resubmission: cache hit, byte-identical answer.
	again, err := c.Run(context.Background(), scenarioSpec())
	if err != nil {
		t.Fatal(err)
	}
	if string(again) != string(res) {
		t.Fatal("cache-hit scenario result differs from first run")
	}
}

// TestScenarioNormalizeCanonicalizes: axis defaults and per-element
// normalization fill in, so two spellings of the same grid share one
// cache key.
func TestScenarioNormalizeCanonicalizes(t *testing.T) {
	a := scenarioSpec()
	b := scenarioSpec()
	// Spell the same grid differently: topology kind left empty (defaults
	// to mesh), zipf skew/flows left to defaults vs written explicitly.
	a.Scenario.Topologies[0].Kind = ""
	a.Scenario.Workloads[0] = workload.Spec{Kind: workload.KindZipf}
	b.Scenario.Workloads[0] = workload.Spec{Kind: workload.KindZipf, Flows: 8, Skew: 1.2}
	na, err := a.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	nb, err := b.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if na.Key() != nb.Key() {
		t.Fatalf("equivalent scenario grids key differently:\n%s\n%s", na.Key(), nb.Key())
	}

	// The faults axis defaults to a single "none" campaign.
	c := scenarioSpec()
	c.Scenario.Faults = nil
	nc, err := c.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if len(nc.Scenario.Faults) != 1 || nc.Scenario.Faults[0].Kind != core.FaultNone {
		t.Fatalf("defaulted faults axis = %+v", nc.Scenario.Faults)
	}
}

// TestScenarioValidation pins the Normalize rejections of the scenario
// kind.
func TestScenarioValidation(t *testing.T) {
	topo := []core.Topology{{W: 2, H: 2}}
	wl := []workload.Spec{{Kind: workload.KindUniform}}
	bad := []JobSpec{
		{Kind: KindScenario}, // no payload
		{Kind: KindScenario, Scenario: &core.ScenarioGrid{N: 5}},                                                                                                        // no axes
		{Kind: KindScenario, Scenario: &core.ScenarioGrid{Topologies: topo, Workloads: wl}},                                                                             // N missing
		{Kind: KindScenario, Scenario: &core.ScenarioGrid{N: 5, Topologies: []core.Topology{{Kind: "ring", W: 2, H: 2}}, Workloads: wl}},                                // bad topology
		{Kind: KindScenario, Scenario: &core.ScenarioGrid{N: 5, Topologies: topo, Workloads: []workload.Spec{{Kind: "tornado"}}}},                                       // bad workload
		{Kind: KindScenario, Scenario: &core.ScenarioGrid{N: 5, Topologies: topo, Workloads: wl, BERs: []float64{2}}},                                                   // bad BER in cells
		{Kind: KindScenario, Scenario: &core.ScenarioGrid{N: 5, Topologies: []core.Topology{{W: 4, H: 1}}, Workloads: []workload.Spec{{Kind: workload.KindTranspose}}}}, // all incompatible
		{Kind: KindGrid, Scenario: &core.ScenarioGrid{N: 5, Topologies: topo, Workloads: wl}},                                                                           // kind/payload mismatch
	}
	for i, spec := range bad {
		if _, err := spec.Normalize(); err == nil {
			t.Errorf("spec %d normalized without error: %+v", i, spec)
		}
	}
}

// TestPR5KindKeysUnchanged pins the PR 5 cache-key bytes of the
// comparison and rare-selfcheck kinds: the Scenario keySpec extension
// carries omitempty, so specs of the earlier kinds keep their canonical
// bytes — and their spilled cache entries.
func TestPR5KindKeysUnchanged(t *testing.T) {
	norm, err := comparisonSpec().Normalize()
	if err != nil {
		t.Fatal(err)
	}
	// Reproduce the PR 5 projection literally: the same struct without
	// the Scenario field.
	legacy := struct {
		Kind          string
		Seed          uint64
		Grid          *core.Grid
		Sweep         *SweepSpec
		Rare          *RareSpec
		Comparison    *ComparisonSpec    `json:",omitempty"`
		RareSelfCheck *RareSelfCheckSpec `json:",omitempty"`
	}{Kind: norm.Kind, Seed: norm.Seed, Comparison: norm.Comparison}
	b, err := json.Marshal(legacy)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := norm.Key(), keyOfBytes(b); got != want {
		t.Fatalf("legacy comparison key changed: %s != %s", got, want)
	}
}
