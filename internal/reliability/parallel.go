package reliability

// Parallel Monte-Carlo stages on the sharded runner. Each estimator splits
// its trial budget across a fixed shard count (a property of the job, not
// of the machine), runs every shard on its own RNG stream derived from the
// pool's base seed and the shard index, and merges the per-shard counters
// with a commutative sum. The merged sample is therefore bit-identical at
// workers=1, workers=4, and workers=NumCPU — parallelism changes wall
// clock, never statistics.

import (
	"context"
	"fmt"

	"repro/internal/runner"
)

// DefaultShards is the shard count the CLIs use when none is specified:
// fine enough to keep dozens of workers busy, coarse enough that per-shard
// setup (FEC tables, channel state) stays negligible.
const DefaultShards = 64

// mergeFERSamples sums per-shard counts, recomputes the merged rate, and
// attaches the Eq. 1 analytic value at the measurement BER.
func mergeFERSamples(samples []FERSample, ber float64) FERSample {
	merged := runner.Reduce(samples, FERSample{}, func(a FERSample, b FERSample) FERSample {
		a.Flits += b.Flits
		a.Erroneous += b.Erroneous
		return a
	})
	if merged.Flits > 0 {
		merged.FER = float64(merged.Erroneous) / float64(merged.Flits)
	}
	p := DefaultParams()
	p.BER = ber
	merged.Analytic = p.FER()
	return merged
}

// MeasureFECBurstSharded is MeasureFECBurst split across `shards` runner
// shards, merging outcome counters with a commutative sum.
func MeasureFECBurstSharded(ctx context.Context, pool runner.Pool, burstLen, trials, shards int) (FECOutcome, error) {
	if burstLen <= 0 || trials <= 0 || shards <= 0 {
		return FECOutcome{}, fmt.Errorf("reliability: MeasureFECBurstSharded needs positive burst length (%d), trials (%d) and shards (%d)", burstLen, trials, shards)
	}
	quota := runner.Split(trials, shards)
	outcomes, err := runner.Map(ctx, pool, shards, func(ctx context.Context, s runner.Shard) (FECOutcome, error) {
		if quota[s.Index] == 0 {
			return FECOutcome{}, nil
		}
		return MeasureFECBurst(burstLen, quota[s.Index], s.Seed), nil
	})
	if err != nil {
		return FECOutcome{}, err
	}
	return runner.Reduce(outcomes, FECOutcome{}, func(a FECOutcome, b FECOutcome) FECOutcome {
		a.Trials += b.Trials
		a.Clean += b.Clean
		a.Corrected += b.Corrected
		a.Detected += b.Detected
		a.Miscorrected += b.Miscorrected
		return a
	}), nil
}

// MCBERPoint is one x-position of a Monte-Carlo BER sweep: the measured
// flit error rate against the Eq. 1 closed form at the same BER.
type MCBERPoint struct {
	BER    float64
	Sample FERSample
}

// MCBERSweep measures the flit error rate at each BER on the sharded
// runner — the Monte-Carlo cross-check of the analytic BERSweep. Each
// point gets `shardsPerPoint` shards of `flitsPerPoint` total flits; the
// whole sweep is one flat job set, so points and shards fill the pool
// together. Results are in BER order and bit-identical at any worker
// count.
func MCBERSweep(ctx context.Context, pool runner.Pool, bers []float64, flitsPerPoint, shardsPerPoint int) ([]MCBERPoint, error) {
	if flitsPerPoint <= 0 || shardsPerPoint <= 0 {
		return nil, fmt.Errorf("reliability: MCBERSweep needs positive flits per point (%d) and shards per point (%d)", flitsPerPoint, shardsPerPoint)
	}
	quota := runner.Split(flitsPerPoint, shardsPerPoint)
	n := len(bers) * shardsPerPoint
	samples, err := runner.Map(ctx, pool, n, func(ctx context.Context, s runner.Shard) (FERSample, error) {
		ber := bers[s.Index/shardsPerPoint]
		q := quota[s.Index%shardsPerPoint]
		if q == 0 {
			return FERSample{}, nil
		}
		return MeasureFERSchedule(ber, q, s.Seed), nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]MCBERPoint, len(bers))
	for i, ber := range bers {
		out[i] = MCBERPoint{BER: ber, Sample: mergeFERSamples(samples[i*shardsPerPoint:(i+1)*shardsPerPoint], ber)}
	}
	return out, nil
}

// StagedSharded runs the full staged Monte-Carlo estimate on the runner:
// stage 1 (FER at an accelerated BER) and stages 2–3 (FEC decode outcomes
// under burst injection), composed with the analytic stage 4 into the
// end-to-end StagedEstimate. This is the parallel form of the
// cross-checks cmd/sweep and cmd/fitcalc print. The FEC stage runs on a
// base seed derived past the FER stage's shard range, so the two
// measurements consume independent RNG streams.
func StagedSharded(ctx context.Context, pool runner.Pool, accelBER float64, flits, burstLen, trials, shards int) (*StagedEstimate, error) {
	pts, err := MCBERSweep(ctx, pool, []float64{accelBER}, flits, shards)
	if err != nil {
		return nil, err
	}
	fer := pts[0].Sample
	fecPool := pool
	fecPool.BaseSeed = runner.ShardSeed(pool.BaseSeed, shards)
	fec, err := MeasureFECBurstSharded(ctx, fecPool, burstLen, trials, shards)
	if err != nil {
		return nil, err
	}
	p := DefaultParams()
	est := &StagedEstimate{
		// Stage 1: rescale the accelerated measurement back to the
		// nominal BER by the analytic ratio, as montecarlo.go documents.
		FER: fer.FER / fer.Analytic * p.FER(),
		// Stage 2 is the PCIe 6.0 spec bound (Eq. 2): the full error mix
		// at nominal BER is dominated by correctable single-bit events,
		// so P(uncorrectable | erroneous) is taken from the spec, not
		// sampled.
		PUncorrectable: p.FERUC / p.FER(),
		// Stage 3 measured: P(FEC misses | uncorrectable) from the burst
		// decode outcomes (1 − detection rate; ≈1/3 for 4-symbol bursts).
		PFECMiss:       1 - fec.DetectionRate(),
		PCoalescing:    p.PCoalescing,
		CRCEscape:      p.CRCEscape,
		FlitsPerSecond: p.FlitsPerSecond,
	}
	est.Compose()
	return est, nil
}
