package main

import (
	"context"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/link"
	"repro/internal/runner"
	"repro/internal/workload"
)

// scanGrid is the built-in regression grid of the -scan verb: every
// protocol stack × mesh and two torus sizes × random, hot-spot, and
// permutation traffic × a fault campaign of each scripted kind. The
// campaigns mirror the differential suite's proven-clean operating
// points; -ber, -burst, and -seed parameterize the whole grid.
func scanGrid(ber, burst float64, seed uint64, n int) core.ScenarioGrid {
	return core.ScenarioGrid{
		Base:      core.Config{BER: ber, BurstProb: burst, Seed: seed},
		Protocols: core.Protocols,
		Topologies: []core.Topology{
			{Kind: core.TopoMesh, W: 3, H: 3},
			{Kind: core.TopoTorus, W: 3, H: 3},
			{Kind: core.TopoTorus, W: 4, H: 4},
		},
		Workloads: []workload.Spec{
			{Kind: workload.KindUniform, Flows: 4},
			{Kind: workload.KindZipf},
			{Kind: workload.KindTranspose},
		},
		Faults: []core.FaultScript{
			{Kind: core.FaultNone},
			{Kind: core.FaultDegrade, StartNS: 150, Factor: 10},
			{Kind: core.FaultStorm, StartNS: 150, DurationNS: 250, Factor: 20},
			{Kind: core.FaultFlap, StartNS: 150, DurationNS: 120, Flaps: 2, PeriodNS: 400},
		},
		N: n,
	}
}

// scanOutcome is one cell's verdict: the differential ran fast==slow,
// and — for RXL, whose whole point is exactly-once delivery — the run
// was clean. CXL-variant cells may legitimately fail payloads under
// faults; only divergence regresses them.
type scanOutcome struct {
	cell      core.ScenarioCell
	fast      core.ScenarioResult
	identical bool
	err       error
}

func (o scanOutcome) regressed() bool {
	if o.err != nil || !o.identical {
		return true
	}
	return o.cell.Cfg.Protocol == link.ProtocolRXL && !o.fast.Clean()
}

func (o scanOutcome) reason() string {
	switch {
	case o.err != nil:
		return "error: " + o.err.Error()
	case !o.identical:
		return "fast path diverges from byte-level reference"
	case o.regressed():
		return "RXL delivery not exactly-once"
	default:
		return ""
	}
}

// runScan sweeps the built-in scenario grid, running every cell through
// the fast-path/byte-level differential on the worker pool, and reports
// which configurations regress. Returns the regression count; per-cell
// errors are reported as regressions rather than aborting the sweep.
func runScan(ctx context.Context, pool runner.Pool, g core.ScenarioGrid, w io.Writer) (int, error) {
	ng, err := g.Normalized()
	if err != nil {
		return 0, err
	}
	cells, err := ng.Cells()
	if err != nil {
		return 0, err
	}
	outcomes, err := runner.Map(ctx, pool, len(cells), func(ctx context.Context, s runner.Shard) (scanOutcome, error) {
		cell := cells[s.Index]
		if cell.Cfg.Seed == 0 {
			cell.Cfg.Seed = s.Seed
		}
		fast, _, identical, err := cell.RunDifferential(ng.N)
		return scanOutcome{cell: cell, fast: fast, identical: identical, err: err}, nil
	})
	if err != nil {
		return 0, err
	}

	fmt.Fprintf(w, "scan: %d cells × 2 runs (fast path vs byte-level reference), %d payloads/flow\n", len(cells), ng.N)
	regressions := 0
	for _, o := range outcomes {
		status := "OK     "
		if o.regressed() {
			status = "REGRESS"
			regressions++
		}
		sum, _ := o.fast.Result.Totals()
		fmt.Fprintf(w, "%s  %-60s delivered=%d missing=%d drops=%d hook_drops=%d",
			status, o.cell.Name(), sum.Delivered, sum.Missing,
			o.fast.Result.Routers.DroppedUncorrectable, o.fast.Result.HookDropped)
		if r := o.reason(); r != "" {
			fmt.Fprintf(w, "  [%s]", r)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "scan: %d/%d cells OK, %d regressions\n", len(cells)-regressions, len(cells), regressions)
	return regressions, nil
}
