// Command sweep regenerates every table and figure of the paper's
// evaluation in one run: the Section 7.1 reliability numbers, the Fig. 8
// FIT sweep, the Section 7.2 bandwidth table, the Section 7.3 hardware
// cost, the deterministic Fig. 4/5 failure scenarios, the Monte-Carlo
// cross-checks backing the analytic model, a parallel protocol ×
// levels × BER grid of live simulations, (with -scenarios) a scenario
// grid spanning mesh/torus topologies, workload generators, and scripted
// fault campaigns, and (with -rare) the rare-event deep-tail estimation
// with importance sampling and multilevel splitting.
// Its output is the source of EXPERIMENTS.md:
//
//	go run ./cmd/sweep -rare > EXPERIMENTS.md
//
// Simulations and Monte-Carlo stages run on the sharded runner
// (internal/runner): -workers bounds concurrency but never changes any
// number — per-shard RNG seeds derive from the base seed and shard index,
// so every worker count reproduces the same output bit for bit.
//
// Every stage's error propagates to a non-zero exit code: a failing
// shard aborts the run (the runner cancels its siblings) rather than
// leaving a silently truncated report behind.
//
// Usage:
//
//	sweep [-mc] [-n 20000] [-workers 0] [-grid] [-csv grid.csv] [-json grid.json]
//	      [-scenarios] [-scenario-csv scenarios.csv]
//	      [-rare] [-proposal-ber 0] [-rel-err 0.1]
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/hwcost"
	"repro/internal/link"
	"repro/internal/perf"
	"repro/internal/reliability"
	"repro/internal/runner"
	"repro/internal/workload"
)

// options collects the flag values so run stays a pure function of its
// inputs — testable, and with a single error path to the exit code.
type options struct {
	mc        bool
	grid      bool
	rare      bool
	scenarios bool
	n         int
	workers   int
	csvPath   string
	jsonPath  string
	scenCSV   string
	proposal  float64
	relErr    float64
}

func main() {
	var opt options
	flag.BoolVar(&opt.mc, "mc", true, "run the Monte-Carlo cross-checks")
	flag.BoolVar(&opt.grid, "grid", true, "run the parallel protocol × levels × BER grid")
	flag.BoolVar(&opt.rare, "rare", false, "run the rare-event deep-tail estimation (IS + splitting)")
	flag.BoolVar(&opt.scenarios, "scenarios", false, "run the scenario grid: topology × workload × fault campaigns")
	flag.StringVar(&opt.scenCSV, "scenario-csv", "", "export the scenario results as CSV to this path")
	flag.IntVar(&opt.n, "n", 20000, "payloads per live simulation")
	flag.IntVar(&opt.workers, "workers", 0, "runner worker pool size (0 = GOMAXPROCS)")
	flag.StringVar(&opt.csvPath, "csv", "", "export the grid results as CSV to this path")
	flag.StringVar(&opt.jsonPath, "json", "", "export the grid results as JSON to this path")
	flag.Float64Var(&opt.proposal, "proposal-ber", 0, "importance-sampling proposal BER (0 = variance-optimal auto)")
	flag.Float64Var(&opt.relErr, "rel-err", 0.1, "target relative error for the rare-event estimates")
	flag.Parse()

	if err := run(context.Background(), opt, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func header(w io.Writer, title string) {
	fmt.Fprintln(w)
	fmt.Fprintln(w, title)
	for range title {
		fmt.Fprint(w, "=")
	}
	fmt.Fprintln(w)
}

func run(ctx context.Context, opt options, w io.Writer) error {
	pool := runner.Pool{Workers: opt.workers, BaseSeed: 1}
	rel := reliability.DefaultParams()
	pf := perf.DefaultParams()

	header(w, "Section 7.1 — reliability (Eq. 1-10)")
	fmt.Fprintf(w, "Eq. 1  FER                 %.3g   (paper: 2.0e-3)\n", rel.FER())
	fmt.Fprintf(w, "Eq. 3  p_correct           %.4f   (paper: >0.985)\n", rel.PCorrect())
	fmt.Fprintf(w, "Eq. 4  FER_UD direct       %.3g   (paper: 1.6e-24)\n", rel.FERUndetectedDirect())
	fmt.Fprintf(w, "Eq. 5  FIT direct          %.3g   (paper: 2.9e-3)\n", rel.FITDirect())
	fmt.Fprintf(w, "Eq. 7  FER_order 1-switch  %.3g   (paper: 3.0e-6)\n", rel.FEROrder(1))
	fmt.Fprintf(w, "Eq. 8  FIT CXL 1-switch    %.3g   (paper: 5.4e15)\n", rel.FITCXL(1))
	fmt.Fprintf(w, "Eq. 10 FIT RXL 1-switch    %.3g   (paper: 2.9e-3)\n", rel.FITRXL(1))
	fmt.Fprintf(w, "       improvement         %.3g   (paper: >1e18)\n", rel.Improvement(1))

	header(w, "Fig. 8 — FIT vs switching levels")
	fmt.Fprintln(w, "levels       FIT_CXL       FIT_RXL")
	for _, pt := range rel.Fig8(8) {
		fmt.Fprintf(w, "%6d  %12.3g  %12.3g\n", pt.Levels, pt.FITCXL, pt.FITRXL)
	}

	header(w, "Section 7.2 — bandwidth loss (Eq. 11-14)")
	fmt.Fprintf(w, "%-30s %9s %8s\n", "scheme", "BW loss", "ordered")
	for _, r := range pf.Table() {
		fmt.Fprintf(w, "%-30s %8.4f%% %8v\n", r.Scheme, 100*r.BWLoss, r.Ordered)
	}

	header(w, "Section 7.3 — ISN hardware cost")
	fmt.Fprintln(w, hwcost.DefaultReport())

	header(w, "Fig. 4 — link-layer drop scenario (deterministic)")
	for _, p := range core.Protocols {
		rep := core.RunFig4(p)
		fmt.Fprintf(w, "%-9s misordered=%-5v unverified=%d isn_detects=%d drops=%d tags=%v\n",
			p, rep.Misordered, rep.UnverifiedDelivered, rep.CrcErrors, rep.SwitchDrops, rep.Tags)
	}

	header(w, "Fig. 5a — duplicate request execution (deterministic)")
	for _, p := range []link.Protocol{link.ProtocolCXL, link.ProtocolRXL} {
		rep := core.RunFig5a(p)
		fmt.Fprintf(w, "%-9s dup_exec=%d dup_data=%d completed=%d/%d isn_detects=%d\n",
			p, rep.DuplicateExecutions, rep.DuplicateData, rep.Completed, rep.Issued, rep.LinkCrcErrors)
	}

	header(w, "Fig. 5b — out-of-order data within a CQID (deterministic)")
	for _, p := range []link.Protocol{link.ProtocolCXL, link.ProtocolRXL} {
		rep := core.RunFig5b(p)
		fmt.Fprintf(w, "%-9s out_of_order=%d completed=%d/%d isn_detects=%d\n",
			p, rep.OutOfOrderData, rep.Completed, rep.Issued, rep.LinkCrcErrors)
	}

	header(w, "Live simulation — protocol comparison under BER")
	fmt.Fprintf(w, "(n=%d payloads, 1 switching level, accelerated BER 1e-5)\n", opt.n)
	results, err := core.RunComparisonPool(ctx, pool, core.Config{Levels: 1, BER: 1e-5, BurstProb: 0.4, Seed: 7}, opt.n)
	if err != nil {
		return err
	}
	for _, p := range core.Protocols {
		fmt.Fprintln(w, results[p])
	}

	if opt.grid {
		if err := runGrid(ctx, pool, opt, w); err != nil {
			return err
		}
	}
	if opt.mc {
		if err := runMC(ctx, pool, opt, w); err != nil {
			return err
		}
	}
	if opt.scenarios {
		if err := runScenarios(ctx, pool, opt, w); err != nil {
			return err
		}
	}
	if opt.rare {
		if err := runRare(ctx, pool, opt, w); err != nil {
			return err
		}
	}
	return nil
}

// runScenarios runs the scenario grid — protocol × topology (mesh and
// torus) × workload generator × scripted fault campaign — on the worker
// pool and reports per-cell delivery accounting. The grid mirrors the
// differential suite's operating points, so every line it prints is a
// configuration the fast/byte-level equivalence tests pin.
func runScenarios(ctx context.Context, pool runner.Pool, opt options, w io.Writer) error {
	header(w, "Scenario grid — topology × workload × fault campaigns")
	g := core.ScenarioGrid{
		Base:      core.Config{BER: 1e-5, BurstProb: 0.4, Seed: 7},
		Protocols: core.Protocols,
		Topologies: []core.Topology{
			{Kind: core.TopoMesh, W: 4, H: 4},
			{Kind: core.TopoTorus, W: 4, H: 4},
		},
		Workloads: []workload.Spec{
			{Kind: workload.KindUniform, Flows: 6},
			{Kind: workload.KindZipf, Flows: 6, Skew: 1.5},
			{Kind: workload.KindTranspose},
			{Kind: workload.KindSingleSink, SinkX: 1, SinkY: 1, Flows: 5},
		},
		Faults: []core.FaultScript{
			{Kind: core.FaultNone},
			{Kind: core.FaultStorm, StartNS: 150, DurationNS: 250, Factor: 20},
			{Kind: core.FaultFlap, StartNS: 150, DurationNS: 120, Flaps: 2, PeriodNS: 400},
		},
		N: max(1, opt.n/100),
	}
	res, err := core.RunScenarioGrid(ctx, pool, g)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "(%d cells × %d payloads/flow, sharded across the worker pool)\n", len(res), g.N)
	fmt.Fprintf(w, "%-9s %-9s %-22s %-22s %9s %9s %7s %6s %10s\n",
		"protocol", "topology", "workload", "fault", "offered", "delivered", "missing", "drops", "hook_drops")
	for _, r := range res {
		sum, offered := r.Result.Totals()
		fmt.Fprintf(w, "%-9s %-9s %-22s %-22s %9d %9d %7d %6d %10d\n",
			r.Result.Cfg.Protocol, r.Topology.Name(), r.Workload.Name(), r.Fault.Name(),
			offered, sum.Delivered, sum.Missing, r.Result.Routers.DroppedUncorrectable, r.Result.HookDropped)
	}
	if opt.scenCSV != "" {
		if err := runner.SaveCSV(opt.scenCSV, core.ScenarioCSVHeader(), core.ScenarioResultRows(res)); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "scenario CSV written to %s\n", opt.scenCSV)
	}
	return nil
}

func runGrid(ctx context.Context, pool runner.Pool, opt options, w io.Writer) error {
	header(w, "Scale-out grid — protocol × levels × BER (parallel runner)")
	g := core.Grid{
		Base:      core.Config{BurstProb: 0.4},
		Protocols: core.Protocols,
		Levels:    []int{0, 1, 2},
		BERs:      []float64{1e-6, 1e-5},
		Seeds:     []uint64{7},
		N:         max(1, opt.n/4),
	}
	fmt.Fprintf(w, "(%d cells × %d payloads, sharded across the worker pool)\n", g.Size(), g.N)
	res, err := core.RunGrid(ctx, pool, g)
	if err != nil {
		return err
	}
	for _, r := range res {
		fmt.Fprintln(w, r)
	}
	if opt.csvPath != "" {
		if err := runner.SaveCSV(opt.csvPath, core.GridCSVHeader(), core.ResultRows(res)); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "grid CSV written to %s\n", opt.csvPath)
	}
	if opt.jsonPath != "" {
		if err := runner.SaveJSON(opt.jsonPath, res); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "grid JSON written to %s\n", opt.jsonPath)
	}
	return nil
}

func runMC(ctx context.Context, pool runner.Pool, opt options, w io.Writer) error {
	header(w, "Monte-Carlo cross-checks (sharded runner)")
	pts, err := reliability.MCBERSweep(ctx, pool, []float64{5e-4}, 20000, reliability.DefaultShards)
	if err != nil {
		return err
	}
	s := pts[0].Sample
	fmt.Fprintf(w, "Eq. 1 at BER=5e-4: measured FER %.4f vs analytic %.4f (%d flits, %d shards)\n",
		s.FER, s.Analytic, s.Flits, reliability.DefaultShards)
	for _, b := range []int{3, 4, 5, 6} {
		o, err := reliability.MeasureFECBurstSharded(ctx, runner.Pool{Workers: opt.workers, BaseSeed: uint64(b) * 977}, b, 20000, reliability.DefaultShards)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "FEC %dB bursts: corrected=%d detected=%d miscorrected=%d detection=%.4f\n",
			b, o.Corrected, o.Detected, o.Miscorrected, o.DetectionRate())
	}
	fmt.Fprintln(w, "(paper Section 2.5: detection 2/3 at 4B, 8/9 at 5B, 26/27 at >=6B)")

	est, err := reliability.StagedSharded(ctx, pool, 5e-4, 20000, 4, 20000, reliability.DefaultShards)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, est)
	return nil
}

// runRare prints the deep-tail estimation: the importance-sampled FER /
// FER_UC / FER_UD sweep at BERs no naive run can reach, the multilevel
// splitting cross-check of the symbol pile-up tail, and the
// self-validation of IS against naive schedule Monte-Carlo at overlap
// BERs where both converge.
func runRare(ctx context.Context, pool runner.Pool, opt options, w io.Writer) error {
	header(w, "Rare-event deep tails — importance sampling + multilevel splitting")
	fmt.Fprintf(w, "(tilted error-event schedule, rel-err target %.2f, %d shards; proposal %s)\n",
		opt.relErr, reliability.DefaultShards, describeProposal(opt.proposal))

	bers := []float64{1e-8, 1e-9, 1e-10}
	pts, err := reliability.RareSweep(ctx, pool, bers, opt.proposal, opt.relErr, 1<<24, reliability.DefaultShards)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "      BER       FER(IS)    ±rel     Eq.1   sigma    FER_UC(IS)    ±rel    FER_UD(IS)    ±rel")
	for _, pt := range pts {
		fmt.Fprintf(w, "%9.0e  %12.4g  %5.1f%%  %7.3g  %6.2f  %12.4g  %5.1f%%  %12.4g  %5.1f%%\n",
			pt.BER, pt.FER.Value, 100*pt.FER.RelErr, pt.FER.Analytic, pt.FER.Sigma(pt.FER.Analytic),
			pt.FERUC.Value, 100*pt.FERUC.RelErr, pt.Undetected.Value, 100*pt.Undetected.RelErr)
	}

	split, err := reliability.MeasureSplitRare(ctx, pool, reliability.DefaultBER, 4, 50000, 16)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "splitting P(>=4 symbol errors/flit) at BER %g: %.4g ±%.1f%% vs exact binomial %.4g (%d final-level hits)\n",
		reliability.DefaultBER, split.Value, 100*split.RelErr, split.Analytic, split.Hits)

	checks, err := reliability.RareSelfCheck(ctx, pool, []float64{1e-6, 1e-7}, 2_000_000, 32)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "self-validation (IS vs naive schedule MC at overlap BERs; acceptance: <= 3 sigma):")
	for _, c := range checks {
		fmt.Fprintf(w, "  BER %g: IS %.4g ±%.1f%% vs naive %.4g (%d/%d events) — %.2f sigma\n",
			c.BER, c.IS.Value, 100*c.IS.RelErr, c.Naive.FER, c.Naive.Erroneous, c.Naive.Flits, c.Sigma)
	}
	return nil
}

func describeProposal(p float64) string {
	if p <= 0 {
		return "auto"
	}
	return fmt.Sprintf("%g", p)
}
