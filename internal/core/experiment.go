package core

import (
	"context"
	"fmt"

	"repro/internal/link"
	"repro/internal/perf"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/switchfab"
)

// Result is the full accounting of one end-to-end experiment.
type Result struct {
	Cfg      Config
	Offered  int // payloads injected at A
	Failures FailureCounts

	// LinkA and LinkB are the endpoint link-layer statistics.
	LinkA, LinkB link.Stats
	// Switches aggregates the switch statistics over all levels.
	Switches switchfab.Stats
	// Goodput is the measured bandwidth accounting at the transmitter.
	Goodput perf.MeasuredGoodput
	// Elapsed is the simulated duration.
	Elapsed sim.Time
	// ForwardUtilization is the busy fraction of the first forward wire.
	ForwardUtilization float64
}

// String summarizes the result on one line.
func (r Result) String() string {
	return fmt.Sprintf(
		"%s L%d BER=%g: offered=%d delivered=%d dup=%d ooo=%d corrupt=%d missing=%d drops=%d retx=%d bwloss=%.4f t=%dns",
		r.Cfg.Protocol, r.Cfg.Levels, r.Cfg.BER,
		r.Offered, r.Failures.Delivered, r.Failures.Duplicates,
		r.Failures.FailOrder, r.Failures.FailData, r.Failures.Missing,
		r.Switches.DroppedUncorrectable, r.LinkA.Retransmissions,
		r.Goodput.BWLoss, r.Elapsed/sim.Nanosecond)
}

// Experiment drives a payload workload through a fabric and produces the
// failure/performance accounting.
type Experiment struct {
	Fabric *Fabric
	// N is the number of line-rate payloads to offer (one per FlitTime).
	N int
}

// Run executes the experiment to quiescence and returns the result.
func (e *Experiment) Run() Result {
	if e.N <= 0 {
		panic("core: experiment needs N > 0")
	}
	f := e.Fabric

	col := NewCollector(e.N)
	f.B().Deliver = col.Deliver

	offer([]*link.Peer{f.A()}, []int{e.N})
	f.Run()

	res := Result{
		Cfg:      f.Cfg,
		Offered:  e.N,
		Failures: col.Finish(),
		LinkA:    f.A().Stats,
		LinkB:    f.B().Stats,
		Switches: f.Chain.TotalSwitchStats(),
		Goodput:  perf.MeasureGoodput(f.A().Stats),
		Elapsed:  f.Eng.Now(),
	}
	if len(f.Chain.Fwd) > 0 {
		res.ForwardUtilization = f.Chain.Fwd[0].Utilization()
	}
	return res
}

// Protocols lists the three variants compared throughout the paper, in
// presentation order.
var Protocols = []link.Protocol{link.ProtocolCXL, link.ProtocolCXLNoPiggyback, link.ProtocolRXL}

// RunComparison runs the same workload and seed across the three protocol
// variants at the given configuration, returning the results keyed by
// protocol — the core of the paper's CXL-vs-RXL tables. The variants run
// concurrently on the sharded runner (each on its own engine); results are
// identical to running them sequentially.
func RunComparison(base Config, n int) map[link.Protocol]Result {
	out, err := RunComparisonPool(context.Background(), runner.Pool{Workers: len(Protocols)}, base, n)
	if err != nil {
		panic(err)
	}
	return out
}

// RunComparisonPool is RunComparison with an explicit context and pool:
// a three-cell Grid over Protocols. A zero base seed is replaced by one
// seed derived from the pool's base seed — the *same* seed for all three
// variants, since the comparison's whole point is identical error
// patterns across protocols — so distinct pool seeds yield independent
// comparison samples. Each variant runs its protocol-correct link
// defaults (LinkConfig is cleared), and n must be positive.
func RunComparisonPool(ctx context.Context, pool runner.Pool, base Config, n int) (map[link.Protocol]Result, error) {
	if base.Seed == 0 {
		base.Seed = runner.ShardSeed(pool.BaseSeed, 0)
	}
	base.LinkConfig = nil
	results, err := RunGrid(ctx, pool, Grid{Base: base, Protocols: Protocols, N: n})
	if err != nil {
		return nil, err
	}
	out := make(map[link.Protocol]Result, len(Protocols))
	for i, p := range Protocols {
		out[p] = results[i]
	}
	return out, nil
}
