package rarevent

import (
	"bytes"
	"context"
	"math"

	"repro/internal/flit"
	"repro/internal/phy"
	"repro/internal/rs"
)

// Importance-sampling estimators on the tilted error-event schedule.
//
// Each estimator walks phy.TiltedChannel's pre-drawn schedule exactly
// like reliability.MeasureFERSchedule walks the untilted one: clean flits
// are bulk-advanced in O(1) with zero RNG draws, and only flits the
// schedule actually strikes do any work. The per-flit importance weight
// W = exp(phy.UnitLogLR(p, q, 2048, flips)) multiplies the event
// indicator; clean flits have flips = 0 and can never hit an event, so
// their (constant) weight enters only the sum-to-one accounting, in
// closed form per clean span.

// walkTilted drives `trials` flits through a tilted schedule: whole
// clean spans are bulk-advanced in O(1) — their weights are a known
// constant and their event indicator is identically zero — and onStruck
// runs for every flit the schedule strikes (which therefore carries ≥1
// flip). It returns the number of clean flits, so the caller folds
// cleanFlits × exp(UnitLogLR(p, q, UnitBits, 0)) into its weight sum.
// This is the one copy of the clean-span idiom the IS estimators share.
//
// The walk polls ctx every cancelCheckMask+1 steps (a step is one bulk
// advance or one struck flit, so at proposal tilts where nearly every
// flit is struck the poll period is a few thousand decodes) and abandons
// the remaining budget on cancellation; the caller's partial sums are
// discarded by the ctx.Err() contract on Estimator.Run.
func walkTilted(ctx context.Context, ch *phy.Channel, trials int, onStruck func()) (cleanFlits int) {
	for i, steps := 0, 0; i < trials; steps++ {
		if steps&cancelCheckMask == 0 && ctx.Err() != nil {
			break
		}
		if clean := ch.NextEvent() / UnitBits; clean > 0 {
			if clean > trials-i {
				clean = trials - i
			}
			ch.Advance(clean * UnitBits)
			cleanFlits += clean
			i += clean
			continue
		}
		onStruck()
		i++
	}
	return cleanFlits
}

// cancelCheckMask sets the context-poll period of the estimator loops:
// every 4096 steps, cheap enough to vanish against even the lightest
// per-step work while keeping cancellation latency in the microseconds.
const cancelCheckMask = 4095

// ISFER estimates the deep-tail flit error rate P(≥1 bit error per flit)
// at BER by importance sampling at Proposal. The Analytic field of the
// estimate carries Eq. 1 at the true BER for cross-checking.
type ISFER struct {
	BER      float64 // true bit error rate (the quantity's operating point)
	Proposal float64 // tilted sampling rate; ≥ BER (see AutoProposalFER)
}

// Run implements Estimator: `trials` flits through the tilted schedule.
func (e ISFER) Run(ctx context.Context, trials int, seed uint64) Estimate {
	if trials <= 0 {
		panic("rarevent: ISFER needs at least one trial")
	}
	p, q := e.BER, e.Proposal
	ch := phy.TiltedChannel(p, q, phy.NewRNG(seed))
	est := Estimate{Trials: trials, Analytic: analyticFER(p)}
	clean := walkTilted(ctx, ch, trials, func() {
		w := math.Exp(phy.UnitLogLR(p, q, UnitBits, ch.Traverse(UnitBits)))
		est.SumW += w
		est.Hits++
		est.SumWZ += w
		est.SumWZ2 += w * w
	})
	est.SumW += float64(clean) * math.Exp(phy.UnitLogLR(p, q, UnitBits, 0))
	est.finalize()
	return est
}

// fecEvent classifies one struck flit's decode outcome for the staged
// failure chain.
type fecEvent int

const (
	fecHarmless fecEvent = iota // corrected, or flips cancelled
	fecDetected                 // uncorrectable, flagged → retry/drop
	fecMiss                     // decode "succeeded" on corrupted data
)

// isDecode runs `trials` flits through the tilted schedule, materializes
// every struck flit as a sealed 256B image, corrupts it per the schedule,
// decodes the RS interleave, and hands (weight, outcome) to sink. The
// shared walk behind ISUncorrectable and ISUndetected.
func isDecode(ctx context.Context, ber, proposal float64, trials int, seed uint64, sink func(w float64, ev fecEvent)) (sumW float64, struck int) {
	p, q := ber, proposal
	master := phy.NewRNG(seed)
	ch := phy.TiltedChannel(p, q, master.Split())
	payloadRNG := master.Split()
	fec := flit.NewFEC()
	var f, reference flit.Flit
	clean := walkTilted(ctx, ch, trials, func() {
		payloadRNG.Fill(f.Payload())
		f.SealCXL(fec)
		reference = f
		k := ch.Corrupt(f.Raw[:])
		w := math.Exp(phy.UnitLogLR(p, q, UnitBits, k))
		sumW += w
		struck++
		ev := fecHarmless
		res := f.DecodeFEC(fec)
		intact := bytes.Equal(f.Raw[:flit.ProtectedSize], reference.Raw[:flit.ProtectedSize])
		switch res.Status {
		case rs.StatusUncorrectable:
			ev = fecDetected
		case rs.StatusClean, rs.StatusCorrected:
			// Zero syndromes despite flips, or a repair that landed on the
			// wrong codeword: corrupted data sails past the FEC.
			if !intact {
				ev = fecMiss
			}
		}
		sink(w, ev)
	})
	sumW += float64(clean) * math.Exp(phy.UnitLogLR(p, q, UnitBits, 0))
	return sumW, struck
}

// ISUncorrectable estimates FER_UC — the per-flit probability that the
// channel leaves the flit uncorrectable by (or miscorrected through) the
// 3-way RS interleave — by importance sampling with real FEC decodes on
// materialized images. No closed form exists for the pure-iid channel;
// Analytic stays 0.
type ISUncorrectable struct {
	BER      float64
	Proposal float64 // see AutoProposalUC
}

// Run implements Estimator.
func (e ISUncorrectable) Run(ctx context.Context, trials int, seed uint64) Estimate {
	if trials <= 0 {
		panic("rarevent: ISUncorrectable needs at least one trial")
	}
	est := Estimate{Trials: trials}
	sumW, _ := isDecode(ctx, e.BER, e.Proposal, trials, seed, func(w float64, ev fecEvent) {
		if ev == fecDetected || ev == fecMiss {
			est.Hits++
			est.SumWZ += w
			est.SumWZ2 += w * w
		}
	})
	est.SumW = sumW
	est.finalize()
	return est
}

// ISUndetected estimates FER_UD — the per-flit undetected failure rate:
// the channel corrupts the flit, the FEC decode misses, and the 64-bit
// CRC escapes. The FEC-miss probability is importance-sampled with real
// decodes; the CRC escape composes analytically (crcEscape, the staged
// model's stage 4), exactly as reliability.StagedEstimate does at
// feasible rates.
type ISUndetected struct {
	BER      float64
	Proposal float64 // see AutoProposalUC
}

// crcEscape is the analytic stage-4 escape probability: the 64-bit CRC's
// 2^-64.
const crcEscape = 1.0 / (1 << 63) / 2

// Run implements Estimator.
func (e ISUndetected) Run(ctx context.Context, trials int, seed uint64) Estimate {
	if trials <= 0 {
		panic("rarevent: ISUndetected needs at least one trial")
	}
	est := Estimate{Trials: trials}
	sumW, _ := isDecode(ctx, e.BER, e.Proposal, trials, seed, func(w float64, ev fecEvent) {
		if ev == fecMiss {
			// Fold the analytic escape into the weight so Value, Variance
			// and RelErr all come out on the FER_UD scale.
			w *= crcEscape
			est.Hits++
			est.SumWZ += w
			est.SumWZ2 += w * w
		}
	})
	est.SumW = sumW
	est.finalize()
	return est
}

// analyticFER is Eq. 1 at the given BER: 1 − (1−p)^2048.
func analyticFER(p float64) float64 {
	return -math.Expm1(float64(UnitBits) * math.Log1p(-p))
}
