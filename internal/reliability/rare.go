package reliability

// Rare-event estimation on the sharded runner: the deep-tail (BER ≤ 1e-9)
// counterparts of MCBERSweep and the staged Monte-Carlo chain,
// backed by internal/reliability/rarevent's importance-sampling and
// multilevel-splitting estimators.
//
// Sharding follows the runner's invariants exactly: per-shard seeds come
// from runner.ShardSeed, merges fold in shard order, and the adaptive
// relative-error loop derives one fresh pool seed per round — so any
// worker count reproduces the same estimate bit for bit, and the loop's
// round boundaries are a property of the estimate, not of scheduling.

import (
	"context"
	"fmt"
	"math"

	"repro/internal/reliability/rarevent"
	"repro/internal/runner"
)

// rareRoundSalt namespaces the adaptive loop's per-round pool seeds away
// from ordinary shard indices (which start at 0), so round pools and
// shard seeds can never collide for small bases.
const rareRoundSalt = 0x5eed0f

// rareMinHits is the hit floor before an adaptive round may declare its
// relative-error target met: a reported RelErr from a handful of hits is
// itself too noisy to trust as a stopping rule.
const rareMinHits = 64

// runRare drives an estimator family across the pool: rounds of `shards`
// shards, doubling the trial budget per round, until the merged estimate
// meets the relative-error target (with at least rareMinHits hits) or the
// budget cap is reached. relErr <= 0 runs exactly one round of maxTrials.
func runRare(ctx context.Context, pool runner.Pool, mk func() rarevent.Estimator, relErr float64, maxTrials, shards, firstBatch int) (rarevent.Estimate, error) {
	if maxTrials <= 0 || shards <= 0 {
		return rarevent.Estimate{}, fmt.Errorf("reliability: rare estimation needs positive trials (%d) and shards (%d)", maxTrials, shards)
	}
	batch := firstBatch
	if relErr <= 0 || batch > maxTrials {
		batch = maxTrials
	}
	var merged rarevent.Estimate
	spent := 0
	for round := 0; ; round++ {
		roundPool := pool
		roundPool.BaseSeed = runner.ShardSeed(pool.BaseSeed, rareRoundSalt+round)
		quota := runner.Split(batch, shards)
		parts, err := runner.Map(ctx, roundPool, shards, func(ctx context.Context, s runner.Shard) (rarevent.Estimate, error) {
			if quota[s.Index] == 0 {
				return rarevent.Estimate{}, nil
			}
			est := mk().Run(ctx, quota[s.Index], s.Seed)
			// A cancelled run returns early with partial sums; surface the
			// cancellation so Map discards the round instead of merging a
			// truncated shard.
			if err := ctx.Err(); err != nil {
				return rarevent.Estimate{}, err
			}
			return est, nil
		})
		if err != nil {
			return rarevent.Estimate{}, err
		}
		merged = rarevent.MergeIS(append([]rarevent.Estimate{merged}, parts...))
		spent += batch
		if relErr <= 0 || spent >= maxTrials {
			return merged, nil
		}
		if merged.RelErr <= relErr && merged.Hits >= rareMinHits {
			return merged, nil
		}
		if batch < maxTrials-spent {
			batch *= 2
		}
		if batch > maxTrials-spent {
			batch = maxTrials - spent
		}
	}
}

// CheckTilt validates a (true BER, proposal) pair at the API boundary so
// user input can never reach phy.TiltedChannel's panic from inside a
// runner worker goroutine: the BER must lie in (0,1) and a set proposal
// in [BER, 1). A zero/negative proposal selects auto. name labels the
// error. It is the one copy of the rule; rxld's rare-job normalizer calls
// it too, so a bad proposal is a 400 at submission.
func CheckTilt(name string, ber, proposal float64) error {
	if ber <= 0 || ber >= 1 {
		return fmt.Errorf("reliability: %s needs BER in (0,1), got %g", name, ber)
	}
	if proposal > 0 && (proposal < ber || proposal >= 1) {
		return fmt.Errorf("reliability: %s proposal BER %g must be in [BER=%g, 1)", name, proposal, ber)
	}
	return nil
}

// MeasureFERRare estimates the flit error rate at a deep-tail BER by
// importance sampling on the tilted error-event schedule, sharded across
// the pool. proposal <= 0 selects the variance-optimal automatic tilt;
// relErr > 0 makes the trial budget adaptive (rounds double until the
// target or maxFlits is hit), relErr <= 0 spends exactly maxFlits. The
// estimate's Analytic field carries Eq. 1 at the true BER.
func MeasureFERRare(ctx context.Context, pool runner.Pool, ber, proposal, relErr float64, maxFlits, shards int) (rarevent.Estimate, error) {
	if err := CheckTilt("MeasureFERRare", ber, proposal); err != nil {
		return rarevent.Estimate{}, err
	}
	if proposal <= 0 {
		proposal = rarevent.AutoProposalFER(ber)
	}
	return runRare(ctx, pool, func() rarevent.Estimator {
		return rarevent.ISFER{BER: ber, Proposal: proposal}
	}, relErr, maxFlits, shards, 64*1024)
}

// MeasureUncorrectableRare estimates FER_UC at a deep-tail BER: the
// importance-sampled probability that a flit arrives uncorrectable by (or
// miscorrected through) the RS interleave, with a real FEC decode on
// every struck flit.
func MeasureUncorrectableRare(ctx context.Context, pool runner.Pool, ber, proposal, relErr float64, maxTrials, shards int) (rarevent.Estimate, error) {
	if err := CheckTilt("MeasureUncorrectableRare", ber, proposal); err != nil {
		return rarevent.Estimate{}, err
	}
	if proposal <= 0 {
		proposal = rarevent.AutoProposalUC(ber)
	}
	return runRare(ctx, pool, func() rarevent.Estimator {
		return rarevent.ISUncorrectable{BER: ber, Proposal: proposal}
	}, relErr, maxTrials, shards, 16*1024)
}

// MeasureUndetectedRare estimates FER_UD at a deep-tail BER: the
// importance-sampled FEC-miss probability composed with the analytic
// 2^-64 CRC escape (the staged model's stage 4) — the quantity whose
// naive estimate is "0 failures observed in anything feasible" (≈1.6e-24
// per flit at the paper's operating point).
func MeasureUndetectedRare(ctx context.Context, pool runner.Pool, ber, proposal, relErr float64, maxTrials, shards int) (rarevent.Estimate, error) {
	if err := CheckTilt("MeasureUndetectedRare", ber, proposal); err != nil {
		return rarevent.Estimate{}, err
	}
	if proposal <= 0 {
		proposal = rarevent.AutoProposalUC(ber)
	}
	return runRare(ctx, pool, func() rarevent.Estimator {
		return rarevent.ISUndetected{BER: ber, Proposal: proposal}
	}, relErr, maxTrials, shards, 16*1024)
}

// MeasureSplitRare estimates the symbol pile-up tail P(≥ level distinct
// erroneous symbols per flit) by multilevel splitting, one independent
// full splitting run (pilot calibration included) per shard, merged as an
// equal-effort mean. effortPerShard is each shard's main-run trajectory
// budget.
func MeasureSplitRare(ctx context.Context, pool runner.Pool, ber float64, level, effortPerShard, shards int) (rarevent.Estimate, error) {
	if effortPerShard <= 0 || shards <= 0 {
		return rarevent.Estimate{}, fmt.Errorf("reliability: MeasureSplitRare needs positive effort (%d) and shards (%d)", effortPerShard, shards)
	}
	if ber <= 0 || ber >= 1 {
		return rarevent.Estimate{}, fmt.Errorf("reliability: MeasureSplitRare needs BER in (0,1), got %g", ber)
	}
	if level < 0 || level > 8 {
		return rarevent.Estimate{}, fmt.Errorf("reliability: MeasureSplitRare level %d out of 1..8 (0 = default 4)", level)
	}
	parts, err := runner.Map(ctx, pool, shards, func(ctx context.Context, s runner.Shard) (rarevent.Estimate, error) {
		est := rarevent.Splitting{BER: ber, Level: level}.Run(ctx, effortPerShard, s.Seed)
		if err := ctx.Err(); err != nil {
			return rarevent.Estimate{}, err
		}
		return est, nil
	})
	if err != nil {
		return rarevent.Estimate{}, err
	}
	return rarevent.MergeShards(parts), nil
}

// RareCheckPoint is one BER of the self-validation sweep: the IS estimate
// against the naive schedule Monte-Carlo sample of the same quantity.
type RareCheckPoint struct {
	BER   float64
	IS    rarevent.Estimate
	Naive FERSample
	// Sigma is |IS − naive| over the combined standard error of the two
	// estimates — ≤ 3 is the acceptance bar enforced by test.
	Sigma float64
}

// RareSelfCheck cross-validates the importance-sampling machinery against
// naive schedule Monte-Carlo at overlapping BERs (1e-6..1e-7) where both
// estimators converge, sharded across the pool. Both sides of each point
// use the same flit budget; a Sigma within ±3 says the likelihood-ratio
// reweighting reproduces reality, licensing the same machinery at BERs
// where no naive cross-check exists.
func RareSelfCheck(ctx context.Context, pool runner.Pool, bers []float64, flits, shards int) ([]RareCheckPoint, error) {
	out := make([]RareCheckPoint, 0, len(bers))
	for i, ber := range bers {
		isPool := pool
		isPool.BaseSeed = runner.ShardSeed(pool.BaseSeed, 2*i)
		is, err := MeasureFERRare(ctx, isPool, ber, 0, 0, flits, shards)
		if err != nil {
			return nil, err
		}
		naivePool := pool
		naivePool.BaseSeed = runner.ShardSeed(pool.BaseSeed, 2*i+1)
		pts, err := MCBERSweep(ctx, naivePool, []float64{ber}, flits, shards)
		if err != nil {
			return nil, err
		}
		naive := pts[0].Sample
		// Binomial variance of the naive mean; IS variance is reported.
		naiveVar := naive.FER * (1 - naive.FER) / float64(naive.Flits)
		se := math.Sqrt(is.Variance + naiveVar)
		sigma := math.Inf(1)
		if se > 0 {
			sigma = math.Abs(is.Value-naive.FER) / se
		} else if is.Value == naive.FER {
			sigma = 0
		}
		out = append(out, RareCheckPoint{BER: ber, IS: is, Naive: naive, Sigma: sigma})
	}
	return out, nil
}

// RarePoint is one BER of a deep-tail sweep: the three staged quantities
// the closed forms predict, now measured with relative-error control.
type RarePoint struct {
	BER        float64
	FER        rarevent.Estimate // vs Eq. 1 (Analytic field)
	FERUC      rarevent.Estimate // uncorrectable after FEC (no closed form for iid)
	Undetected rarevent.Estimate // FER_UD = FEC-miss mass × 2^-64
}

// RareSweep runs the full rare-tail estimation at each BER on the sharded
// runner: importance-sampled FER, FER_UC, and FER_UD with a common
// relative-error target. Each point derives an independent pool seed, so
// the sweep is one deterministic artifact per (BaseSeed, bers, budget).
func RareSweep(ctx context.Context, pool runner.Pool, bers []float64, proposal, relErr float64, maxTrials, shards int) ([]RarePoint, error) {
	out := make([]RarePoint, 0, len(bers))
	for i, ber := range bers {
		p := pool
		p.BaseSeed = runner.ShardSeed(pool.BaseSeed, 3*i+1)
		fer, err := MeasureFERRare(ctx, p, ber, proposal, relErr, maxTrials, shards)
		if err != nil {
			return nil, err
		}
		p.BaseSeed = runner.ShardSeed(pool.BaseSeed, 3*i+2)
		uc, err := MeasureUncorrectableRare(ctx, p, ber, proposal, relErr, maxTrials, shards)
		if err != nil {
			return nil, err
		}
		p.BaseSeed = runner.ShardSeed(pool.BaseSeed, 3*i+3)
		ud, err := MeasureUndetectedRare(ctx, p, ber, proposal, relErr, maxTrials, shards)
		if err != nil {
			return nil, err
		}
		out = append(out, RarePoint{BER: ber, FER: fer, FERUC: uc, Undetected: ud})
	}
	return out, nil
}
