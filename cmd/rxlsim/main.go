// Command rxlsim runs one end-to-end interconnect simulation: a chosen
// protocol variant across a multi-level switched fabric with BER-driven
// error injection, reporting delivery integrity, retries, switch drops,
// and bandwidth accounting.
//
// With -reps R the workload is replicated R times with deterministic
// per-replica seeds derived from -seed, sharded across the runner's
// worker pool (-workers), and reported per replica plus merged — the
// Monte-Carlo form of the experiment. Results are bit-identical at any
// worker count.
//
// With -compare the single experiment runs once under each of the three
// protocols on the same workload; -proto and -reps conflict with it and
// are rejected.
//
// With -rare the live simulation is replaced by the rare-event deep-tail
// estimation at the configured -ber: importance sampling on the tilted
// error-event schedule reports FER, FER_UC, and FER_UD with relative-
// error control (-rel-err), at operating points (BER ≤ 1e-9) where the
// live simulator could never observe a single event. Rare mode models
// the per-link iid channel (burst-free, no fabric), so the simulation
// flags (-proto, -levels, -burst, -internal, -n, -compare, -reps, -csv)
// conflict with it and are rejected.
//
// With -scan the single experiment is replaced by a scenario regression
// sweep: a built-in grid of protocol × topology (mesh and torus) ×
// workload (uniform, zipf hot-spot, transpose) × scripted fault campaign
// (none, lane degrade, BER storm, link flap) is run cell by cell through
// the fast-path/byte-level differential, and every configuration whose
// two runs diverge — or whose RXL delivery is not exactly-once — is
// reported as a regression (non-zero exit). -ber, -burst, -seed, and
// -scan-n parameterize the grid; the single-experiment flags conflict.
//
// Usage:
//
//	rxlsim [-proto rxl|cxl|cxl-nopb] [-levels 1] [-ber 1e-6] [-n 100000]
//	       [-seed 1] [-burst 0.4] [-internal 0] [-compare]
//	       [-reps 1] [-workers 0] [-csv out.csv]
//	       [-rare] [-proposal-ber 0] [-rel-err 0.1 (0 = spend the fixed 2^24-trial budget)]
//	       [-scan] [-scan-n 60]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/link"
	"repro/internal/reliability"
	"repro/internal/runner"
)

func parseProto(s string) (link.Protocol, error) {
	switch s {
	case "cxl":
		return link.ProtocolCXL, nil
	case "cxl-nopb":
		return link.ProtocolCXLNoPiggyback, nil
	case "rxl":
		return link.ProtocolRXL, nil
	default:
		return 0, fmt.Errorf("unknown protocol %q (want cxl, cxl-nopb, or rxl)", s)
	}
}

// modes lists, for each mode that replaces the single experiment, the
// flags it rejects and why: setting one of them is a contradiction, not
// something to discard silently. Each list is in flag.Visit's (lexical)
// order, which the message keeps.
var modes = []struct {
	name    string
	rejects []string
	why     string
}{{
	// The scan grid enumerates what the single-experiment flags select,
	// and the sweep tool's -scenarios stage exports scenario CSV.
	name: "scan",
	rejects: []string{"compare", "csv", "internal", "levels", "n", "proposal-ber", "proto",
		"rare", "rel-err", "reps"},
	why: "the scan verb enumerates protocols, topologies, workloads, and fault campaigns itself",
}, {
	name:    "rare",
	rejects: []string{"burst", "compare", "csv", "internal", "levels", "n", "proto", "reps", "scan-n"},
	why:     "the rare estimators model the per-link iid channel (burst-free) without a fabric",
}, {
	name:    "compare",
	rejects: []string{"proto", "reps"},
	why:     "the comparison runs each of the three protocols once on the same workload",
}}

// modeConflict reports the first mode in set that conflicts with other
// flags in set; set holds the names of the flags given on the command line.
func modeConflict(set map[string]bool) error {
	for _, m := range modes {
		if !set[m.name] {
			continue
		}
		var conflict []string
		for _, name := range m.rejects {
			if set[name] {
				conflict = append(conflict, "-"+name)
			}
		}
		if len(conflict) > 0 {
			return fmt.Errorf("rxlsim: %s do(es) not apply with -%s: %s",
				strings.Join(conflict, ", "), m.name, m.why)
		}
	}
	return nil
}

// checkCounts rejects a payload or replica count below one, which no mode
// can run: the experiment panics on N = 0 and -reps 0 would run one replica.
func checkCounts(n, reps int) error {
	if n < 1 {
		return fmt.Errorf("rxlsim: -n must be at least 1, got %d", n)
	}
	if reps < 1 {
		return fmt.Errorf("rxlsim: -reps must be at least 1, got %d", reps)
	}
	return nil
}

func main() {
	proto := flag.String("proto", "rxl", "protocol: cxl, cxl-nopb, or rxl")
	levels := flag.Int("levels", 1, "switching levels (0 = direct connection)")
	ber := flag.Float64("ber", 1e-6, "per-link bit error rate")
	burst := flag.Float64("burst", 0.4, "DFE burst extension probability")
	internal := flag.Float64("internal", 0, "per-flit switch-internal corruption probability")
	n := flag.Int("n", 100000, "payloads to transfer")
	seed := flag.Uint64("seed", 1, "RNG seed (equal seeds reproduce runs exactly)")
	compare := flag.Bool("compare", false, "run all three protocols on the same workload")
	reps := flag.Int("reps", 1, "independent replicas with derived seeds, run on the worker pool")
	workers := flag.Int("workers", 0, "runner worker pool size (0 = GOMAXPROCS)")
	csvPath := flag.String("csv", "", "export replica results as CSV to this path")
	rare := flag.Bool("rare", false, "estimate rare-event deep tails at -ber instead of running the live simulation")
	proposal := flag.Float64("proposal-ber", 0, "importance-sampling proposal BER (0 = variance-optimal auto)")
	relErr := flag.Float64("rel-err", 0.1, "target relative error for the rare-event estimates (0 = spend the fixed 2^24-trial budget)")
	scan := flag.Bool("scan", false, "sweep the built-in scenario grid (topologies × workloads × fault campaigns) through the fast/byte-level differential and report regressions")
	scanN := flag.Int("scan-n", 60, "payloads per flow for each -scan cell")
	flag.Parse()
	if err := checkCounts(*n, *reps); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	ctx := context.Background()
	pool := runner.Pool{Workers: *workers, BaseSeed: *seed}

	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if err := modeConflict(set); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	if *scan {
		regressions, err := runScan(ctx, pool, scanGrid(*ber, *burst, *seed, *scanN), os.Stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		if regressions > 0 {
			os.Exit(1)
		}
		return
	}

	if *rare {
		if err := runRare(ctx, pool, *ber, *proposal, *relErr); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		return
	}

	base := core.Config{
		Levels:           *levels,
		BER:              *ber,
		BurstProb:        *burst,
		InternalFlipProb: *internal,
		Seed:             *seed,
	}

	if *compare {
		results, err := core.RunComparisonPool(ctx, pool, base, *n)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		for _, r := range results {
			fmt.Println(r)
		}
		exportCSV(*csvPath, results)
		return
	}

	p, err := parseProto(*proto)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	base.Protocol = p

	if *reps > 1 {
		runReplicas(ctx, pool, base, *n, *reps, *csvPath)
		return
	}
	fabric, err := core.NewFabric(base)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	exp := core.Experiment{Fabric: fabric, N: *n}
	res := exp.Run()
	fmt.Println(res)
	exportCSV(*csvPath, []core.Result{res})

	fc := res.Failures
	fmt.Printf("failure taxonomy: Fail_data=%d Fail_order=%d duplicates=%d missing=%d\n",
		fc.FailData, fc.FailOrder, fc.Duplicates, fc.Missing)
	fmt.Printf("link A: sent=%d data=%d retx=%d acks_rx=%d naks_rx=%d\n",
		res.LinkA.FlitsSent, res.LinkA.DataFlitsSent, res.LinkA.Retransmissions,
		res.LinkA.AcksReceived, res.LinkA.NaksReceived)
	fmt.Printf("link B: rx=%d fec_corrected=%d crc_errors=%d unverified=%d\n",
		res.LinkB.FlitsReceived, res.LinkB.FecCorrectedFlits, res.LinkB.CrcErrors,
		res.LinkB.UnverifiedDelivered)
	fmt.Printf("switches: in=%d fwd=%d dropped_uc=%d dropped_crc=%d corrected=%d internal=%d\n",
		res.Switches.FlitsIn, res.Switches.Forwarded, res.Switches.DroppedUncorrectable,
		res.Switches.DroppedCRC, res.Switches.CorrectedFlits, res.Switches.InternalCorruptions)
	fmt.Printf("bandwidth: goodput_loss=%.4f%% ack_overhead=%.4f retry_overhead=%.4f utilization=%.3f\n",
		100*res.Goodput.BWLoss, res.Goodput.AckOverhead, res.Goodput.RetryOverhead,
		res.ForwardUtilization)

	if !fc.Clean() {
		os.Exit(1)
	}
}

// runReplicas runs `reps` independent copies of the configured experiment
// with per-replica seeds derived from the base seed (replica seed 0 means
// "derive"; runner.ShardSeed supplies it), reports each replica, and
// merges the failure taxonomy — exactly-once semantics hold only if every
// replica is clean.
func runReplicas(ctx context.Context, pool runner.Pool, base core.Config, n, reps int, csvPath string) {
	g := core.Grid{
		Base:  base,
		Seeds: make([]uint64, reps), // zeros: derived per cell from the pool seed
		N:     n,
	}
	results, err := core.RunGrid(ctx, pool, g)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	var merged core.FailureCounts
	var retx, drops uint64
	clean := true
	for i, r := range results {
		fmt.Printf("rep %2d  %s\n", i, r)
		merged.Add(r.Failures)
		retx += r.LinkA.Retransmissions
		drops += r.Switches.DroppedUncorrectable
		clean = clean && r.Failures.Clean()
	}
	fmt.Printf("merged %d reps × %d payloads: delivered=%d dup=%d ooo=%d corrupt=%d missing=%d retx=%d drops=%d\n",
		reps, n, merged.Delivered, merged.Duplicates, merged.FailOrder,
		merged.FailData, merged.Missing, retx, drops)

	exportCSV(csvPath, results)
	if !clean {
		os.Exit(1)
	}
}

// runRare prints the importance-sampled deep-tail estimates at the
// link's BER: flit error rate against Eq. 1, uncorrectable-after-FEC
// rate from real RS decodes, and the undetected rate composed with the
// analytic 2^-64 CRC escape. Any shard error aborts with a non-zero
// exit.
func runRare(ctx context.Context, pool runner.Pool, ber, proposal, relErr float64) error {
	pts, err := reliability.RareSweep(ctx, pool, []float64{ber}, proposal, relErr, 1<<24, reliability.DefaultShards)
	if err != nil {
		return err
	}
	pt := pts[0]
	fmt.Printf("rare-event estimation at BER %g (per-link iid channel, rel-err target %.2f, %d shards):\n",
		ber, relErr, reliability.DefaultShards)
	fmt.Printf("  FER     %12.4g ±%.1f%%   (Eq. 1: %.4g, %.2f sigma; %d hits / %d trials)\n",
		pt.FER.Value, 100*pt.FER.RelErr, pt.FER.Analytic, pt.FER.Sigma(pt.FER.Analytic),
		pt.FER.Hits, pt.FER.Trials)
	fmt.Printf("  FER_UC  %12.4g ±%.1f%%   (real FEC decodes; %d hits / %d trials)\n",
		pt.FERUC.Value, 100*pt.FERUC.RelErr, pt.FERUC.Hits, pt.FERUC.Trials)
	fmt.Printf("  FER_UD  %12.4g ±%.1f%%   (FEC-miss mass × 2^-64 CRC escape)\n",
		pt.Undetected.Value, 100*pt.Undetected.RelErr)
	return nil
}

// exportCSV writes results to path when one was requested; every mode
// (single run, -compare, -reps) honors the -csv flag through it.
func exportCSV(path string, results []core.Result) {
	if path == "" {
		return
	}
	if err := runner.SaveCSV(path, core.GridCSVHeader(), core.ResultRows(results)); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	fmt.Fprintf(os.Stderr, "result CSV written to %s\n", path)
}
