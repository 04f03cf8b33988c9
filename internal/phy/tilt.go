package phy

import "math"

// Importance-sampling support: exponential tilting of the error-event
// schedule. A schedule built at a *proposal* BER q > p draws its geometric
// gaps from the tilted process; an estimator that reweights each unit
// (flit) trajectory by the exact likelihood ratio of the drawn gaps
// recovers unbiased estimates under the *true* BER p. Because the
// schedule is the only source of randomness and both processes are iid
// Bernoulli bit streams, the ratio over one bits-wide unit with `flips`
// flipped bits collapses to the closed form
//
//	W = (p/q)^flips × ((1-p)/(1-q))^(bits-flips)
//
// which is exactly the product of the per-gap ratios of every gap the
// schedule drew inside the unit, with boundary-straddling residual gaps
// splitting across units by memorylessness (see TestUnitLogLRTelescopes
// and DESIGN.md §7 for the derivation). The tilting hook therefore leaves
// the schedule untouched: Walk, Traverse and Corrupt run at the proposal
// rate, and the caller folds UnitLogLR over per-unit flip counts.

// TiltedChannel returns the importance-sampling proposal for a true-BER
// process: an ordinary schedule of unitBits-wide units whose gaps are
// drawn at proposalBER instead of trueBER, walked like any other
// (SharedSchedule.Walk). Burst extension is disabled — the
// likelihood-ratio algebra covers the iid channel, matching the
// schedule-only Monte-Carlo estimators. It panics if the proposal would
// undersample the truth (proposal < trueBER) or if either rate is outside
// (0,1); equal rates are allowed and degrade to plain Monte-Carlo with
// unit weights.
func TiltedChannel(trueBER, proposalBER float64, rng *RNG, unitBits int) *SharedSchedule {
	if trueBER <= 0 || trueBER >= 1 || proposalBER >= 1 {
		panic("phy: TiltedChannel needs BERs in (0,1)")
	}
	if proposalBER < trueBER {
		panic("phy: TiltedChannel proposal below the true BER")
	}
	return NewSharedSchedule(proposalBER, 0, rng, unitBits)
}

// GapLogLR returns the log likelihood ratio of one drawn schedule gap —
// `gap` clean bits followed by an error event — between the true process
// at BER p and the proposal at BER q:
//
//	log LR = log(p/q) + gap × [log(1-p) - log(1-q)]
//
// It exists to state (and test) the per-gap form the unit closed form
// telescopes from; estimators should fold UnitLogLR instead.
func GapLogLR(p, q float64, gap int) float64 {
	return math.Log(p/q) + float64(gap)*(math.Log1p(-p)-math.Log1p(-q))
}

// UnitLogLR returns the log likelihood ratio of one bits-wide unit
// trajectory with `flips` flipped bits between the true process at BER p
// and the proposal at BER q:
//
//	log W = flips × log(p/q) + (bits-flips) × [log(1-p) - log(1-q)]
//
// Under the proposal, E[exp(UnitLogLR)] = 1 per unit (weights sum to
// one), and E[exp(UnitLogLR) × 1{event}] is the true-BER event
// probability — the identities the rarevent estimators and their
// acceptance tests are built on. log1p keeps precision at the deep-tail
// BERs (≤1e-9) this exists for.
func UnitLogLR(p, q float64, bits, flips int) float64 {
	clean := math.Log1p(-p) - math.Log1p(-q)
	return float64(flips)*math.Log(p/q) + float64(bits-flips)*clean
}
