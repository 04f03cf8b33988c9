// Package rarevent estimates ultra-rare flit-level failure probabilities
// — deep-tail flit error rates, uncorrectable-after-FEC rates, undetected
// rates — with variance reduction instead of brute throughput.
//
// PR 2's schedule-only Monte-Carlo walks ~1e10 flits/s/core, but at the
// paper's deep-tail operating points (BER ≤ 1e-9) the interesting events
// are so rare that naive sampling still cannot produce a confidence
// interval in any feasible run: a nonzero FER needs ~5e8 flits per hit,
// and an uncorrectable flit ~1e18. This package turns those "lower bound:
// 0 observed failures" results into point estimates with variance and
// relative-error control, via two complementary estimators behind one
// Estimator interface:
//
//   - Importance sampling (is.go): tilt the geometric error-event
//     schedule to a proposal BER q ≫ p, reweight each flit trajectory by
//     its exact likelihood ratio (phy.UnitLogLR — a product over the
//     drawn gaps that collapses to a per-flit closed form in the flip
//     count). Best when events are rare because the *rate* is low.
//
//   - Multilevel splitting (split.go): at a feasible BER, clone
//     trajectories each time they cross a near-miss level (k distinct
//     erroneous symbols within one flit — k-1 symbol errors inside one RS
//     interleave depth is one error short of uncorrectable), estimating
//     the tail as a product of per-level conditional probabilities with
//     level effort calibrated by a pilot run. Best when events are rare
//     because they need a *pile-up* of errors.
//
// Both are deterministic functions of (trials, seed); the sharded
// wrappers in package reliability derive per-shard seeds through
// runner.ShardSeed, so merged estimates are bit-identical at any worker
// count. The estimators cross-validate against naive schedule Monte-Carlo
// at overlapping BERs (1e-6..1e-7) where both converge — see
// reliability.RareSelfCheck and the acceptance tests.
package rarevent

import (
	"context"
	"fmt"
	"math"

	"repro/internal/flit"
)

// UnitBits is the trajectory width every estimator works over: one 256B
// flit crossing the channel.
const UnitBits = flit.Bits

// Estimate is a rare-event probability estimate with uncertainty. Value,
// Variance (of the estimator mean), and RelErr are the contract of the
// Estimator interface; the sum fields are the mergeable raw moments the
// sharded wrappers fold with MergeIS/MergeShards.
type Estimate struct {
	Value    float64 // point estimate of the per-flit event probability
	Variance float64 // variance of the estimator mean
	RelErr   float64 // sqrt(Variance)/Value; +Inf when Value is 0
	Trials   int     // flit trajectories consumed
	Hits     int     // trajectories that hit the event (raw, unweighted)
	Analytic float64 // closed-form comparator when one exists (else 0)

	// MeanWeight is the empirical mean importance weight across all
	// trials. For IS estimators E[W] = 1 exactly, so a mean far from 1
	// flags a broken likelihood ratio (the sum-to-one sanity check).
	// Splitting has no weights and reports 1.
	MeanWeight float64

	// Unnormalized accumulators: Σ W·Z, Σ (W·Z)², Σ W over trials (Z = event
	// indicator). Exported so shard merges can recompute exact moments;
	// zero for splitting estimates, which merge as equal-effort means.
	SumWZ, SumWZ2, SumW float64
}

// String renders the estimate for CLI reports.
func (e Estimate) String() string {
	return fmt.Sprintf("%.4g ±%.1f%% (trials=%d hits=%d)",
		e.Value, 100*e.RelErr, e.Trials, e.Hits)
}

// Sigma returns the distance between the estimate and a reference value
// in units of the estimate's standard error (+Inf for a zero-variance
// mismatch) — the 3σ acceptance metric of the self-validation mode.
func (e Estimate) Sigma(ref float64) float64 {
	se := math.Sqrt(e.Variance)
	if se == 0 {
		if e.Value == ref {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(e.Value-ref) / se
}

// finalize recomputes Value/Variance/RelErr/MeanWeight from the raw sums.
func (e *Estimate) finalize() {
	n := float64(e.Trials)
	if n == 0 {
		e.RelErr = math.Inf(1)
		return
	}
	e.Value = e.SumWZ / n
	e.MeanWeight = e.SumW / n
	// Var(mean) = (E[X²] − E[X]²)/n with X = W·Z.
	e.Variance = (e.SumWZ2/n - e.Value*e.Value) / n
	if e.Variance < 0 { // roundoff guard
		e.Variance = 0
	}
	e.RelErr = math.Inf(1)
	if e.Value > 0 {
		e.RelErr = math.Sqrt(e.Variance) / e.Value
	}
}

// Estimator is a rare-event estimator: a pure function of a trial budget
// and a seed, returning a point estimate with variance and relative
// error. Implementations must be deterministic per (trials, seed) so the
// sharded wrappers inherit the runner's bit-identical-at-any-worker-count
// guarantee.
//
// The context is a cancellation hook only: implementations poll ctx.Err()
// every few thousand trajectories and return early with whatever partial
// accounting they hold, so a cancelled daemon job stops burning its shard
// mid-round instead of running the full budget. A partial estimate is
// statistically meaningless — callers must check ctx.Err() after Run and
// discard the value when it is non-nil. An uncancelled context never
// changes a single draw, keeping determinism intact.
type Estimator interface {
	// Run consumes `trials` flit trajectories seeded from `seed`,
	// returning early (with a partial, to-be-discarded estimate) if ctx
	// is cancelled.
	Run(ctx context.Context, trials int, seed uint64) Estimate
}

// MergeIS folds per-shard IS estimates of the same quantity into one by
// summing the raw moment accumulators and recomputing the estimate —
// exact, order-dependent only through float summation order, which the
// runner fixes to shard order. The Analytic comparator is taken from the
// first non-zero part.
func MergeIS(parts []Estimate) Estimate {
	var m Estimate
	for _, p := range parts {
		m.Trials += p.Trials
		m.Hits += p.Hits
		m.SumWZ += p.SumWZ
		m.SumWZ2 += p.SumWZ2
		m.SumW += p.SumW
		if m.Analytic == 0 {
			m.Analytic = p.Analytic
		}
	}
	m.finalize()
	return m
}

// MergeShards folds per-shard estimates that carry no raw moments
// (splitting): each shard ran the same effort independently, so the
// merged value is the mean of shard values and the merged variance is the
// variance of that mean. Parts with zero trials are skipped.
func MergeShards(parts []Estimate) Estimate {
	var m Estimate
	used := 0
	for _, p := range parts {
		if p.Trials == 0 {
			continue
		}
		used++
		m.Value += p.Value
		m.Variance += p.Variance
		m.Trials += p.Trials
		m.Hits += p.Hits
		if m.Analytic == 0 {
			m.Analytic = p.Analytic
		}
	}
	if used == 0 {
		m.RelErr = math.Inf(1)
		m.MeanWeight = 1
		return m
	}
	m.Value /= float64(used)
	m.Variance /= float64(used * used)
	m.MeanWeight = 1
	m.RelErr = math.Inf(1)
	if m.Value > 0 {
		m.RelErr = math.Sqrt(m.Variance) / m.Value
	}
	return m
}

// AutoProposalFER returns the variance-near-optimal proposal BER for the
// ≥1-bit-error (FER) event: the dominant contribution is single-flip
// flits, whose second moment is minimized when the expected flips per
// flit n·q equal 1 (relative variance ∝ e^{n·q}/(n·q)). The proposal is
// never below the true BER.
func AutoProposalFER(ber float64) float64 {
	return math.Max(ber, 1.0/float64(UnitBits))
}

// AutoProposalUC returns the proposal for uncorrectable/undetected
// events, which need at least two symbol errors in one RS codeword: the
// dominant contribution is two-flip flits, optimal at n·q ≈ 2.
func AutoProposalUC(ber float64) float64 {
	return math.Max(ber, 2.0/float64(UnitBits))
}
