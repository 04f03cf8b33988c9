package reliability

import (
	"bytes"
	"fmt"

	"repro/internal/flit"
	"repro/internal/phy"
	"repro/internal/rs"
)

// This file provides the staged Monte-Carlo estimators that back the
// analytic model. Directly sampling an undetected failure (≈1.6e-24 per
// flit) is impossible, so the chain of conditional probabilities is
// measured stage by stage at rates where events actually occur:
//
//	stage 1  P(flit erroneous)                — accelerated BER, phy.Channel
//	stage 2  P(uncorrectable | erroneous)     — real FEC decode on flits
//	stage 3  P(FEC misses | uncorrectable)    — burst injection into RS codec
//	stage 4  P(CRC misses | FEC missed)       — analytic 2^-64 (validated by
//	                                            the exhaustive burst/random
//	                                            tests in internal/crc)
//
// Composing measured stages 1–3 with the analytic stage 4 reproduces the
// closed forms of reliability.go with simulation-grade evidence.

// FERSample is the result of a Monte-Carlo flit error rate measurement.
type FERSample struct {
	Flits     int     // flits pushed through the channel
	Erroneous int     // flits with at least one flipped bit
	FER       float64 // Erroneous / Flits
	Analytic  float64 // Eq. 1 at the same BER for comparison
}

// MeasureFERSchedule pushes `flits` flits through a BER channel and
// counts how many are corrupted, cross-checking Eq. 1. It walks the
// channel's pre-drawn error-event schedule with phy.Channel.Traverse, so
// clean flits cost O(1) with zero RNG draws. The channel consumes exactly
// the random stream the byte-level reference (the one-hop MeasureFERPath)
// would, so identical seeds give identical counts — proven by
// TestMeasureFERScheduleMatchesByteLevel — at one-to-two orders of
// magnitude higher trial throughput at production BERs (Fig. 8 tails).
func MeasureFERSchedule(ber float64, flits int, seed uint64) FERSample {
	if flits <= 0 {
		panic("reliability: MeasureFERSchedule needs at least one flit")
	}
	p := DefaultParams()
	p.BER = ber
	ch := phy.NewChannel(ber, 0, phy.NewRNG(seed))
	bad := 0
	for i := 0; i < flits; {
		// Bulk-advance the whole clean span in one O(1) step: at BER 1e-6
		// that is ~500 flits per error event, so the loop body runs per
		// event, not per flit. Advance draws no RNG and accounts the same
		// BitsSeen total the per-flit walk would.
		if clean := ch.NextEvent() / FlitBits; clean > 0 {
			if clean > flits-i {
				clean = flits - i
			}
			ch.Advance(clean * FlitBits)
			i += clean
			continue
		}
		if ch.Traverse(FlitBits) > 0 {
			bad++
		}
		i++
	}
	return FERSample{
		Flits:     flits,
		Erroneous: bad,
		FER:       float64(bad) / float64(flits),
		Analytic:  p.FER(),
	}
}

// FECOutcome classifies decode results of error-injected flits.
type FECOutcome struct {
	Trials       int
	Clean        int // decode reported no error (nothing was injected or all flips cancelled)
	Corrected    int // decode repaired the flit and the repair is byte-exact
	Detected     int // decode flagged the flit uncorrectable
	Miscorrected int // decode "succeeded" but the flit differs from the original
}

// DetectionRate returns Detected / (Detected + Miscorrected): the fraction
// of uncorrectable flits the shortened RS interleave catches on its own —
// the Section 2.5 fractions (≈2/3 for 4-symbol bursts, 8/9 for 5, 26/27
// for ≥6).
func (o FECOutcome) DetectionRate() float64 {
	bad := o.Detected + o.Miscorrected
	if bad == 0 {
		return 0
	}
	return float64(o.Detected) / float64(bad)
}

// MeasureFECBurst injects `trials` random contiguous byte bursts of the
// given length into sealed flits and classifies the FEC decode outcome.
// Burst positions and symbol values are uniform; length is in bytes
// (symbols). This measures stages 2–3 of the staged model.
func MeasureFECBurst(burstLen, trials int, seed uint64) FECOutcome {
	if burstLen <= 0 || trials <= 0 {
		panic("reliability: MeasureFECBurst needs positive burst length and trials")
	}
	rng := phy.NewRNG(seed)
	fec := flit.NewFEC()
	out := FECOutcome{Trials: trials}

	var reference flit.Flit
	for i := 0; i < trials; i++ {
		var f flit.Flit
		rng.Fill(f.Payload())
		f.SealCXL(fec)
		reference = f

		// Inject a burst of byte errors at a random offset across the
		// FEC-protected region (header+payload+CRC+FEC parity).
		start := rng.Intn(flit.Size - burstLen)
		for b := 0; b < burstLen; b++ {
			f.Raw[start+b] ^= rng.NonzeroByte()
		}

		res := f.DecodeFEC(fec)
		switch res.Status {
		case rs.StatusClean:
			// Zero syndromes despite injected errors means the burst
			// mapped the codeword onto another valid codeword — an FEC
			// miss unless the flips happened to cancel.
			if bytes.Equal(f.Raw[:flit.ProtectedSize], reference.Raw[:flit.ProtectedSize]) {
				out.Clean++
			} else {
				out.Miscorrected++
			}
		case rs.StatusUncorrectable:
			out.Detected++
		case rs.StatusCorrected:
			if bytes.Equal(f.Raw[:flit.ProtectedSize], reference.Raw[:flit.ProtectedSize]) {
				out.Corrected++
			} else {
				out.Miscorrected++
			}
		}
	}
	return out
}

// StagedEstimate composes measured conditional stages with the analytic
// CRC escape probability into end-to-end failure rates, mirroring the
// closed forms with empirically validated inputs.
type StagedEstimate struct {
	// Measured inputs.
	FER            float64 // stage 1, from MeasureFERSchedule (rescaled if needed)
	PUncorrectable float64 // stage 2: P(uncorrectable | erroneous)
	PFECMiss       float64 // stage 3: P(FEC misses | uncorrectable)
	PCoalescing    float64
	CRCEscape      float64
	FlitsPerSecond float64

	// Composed outputs.
	FERUC       float64 // FER × PUncorrectable
	FITCXLOneSw float64 // ordering failures at one switching level
	FITRXLOneSw float64 // undetected data failures under RXL
}

// Compose fills the output fields from the inputs.
func (s *StagedEstimate) Compose() {
	s.FERUC = s.FER * s.PUncorrectable
	p := DefaultParams()
	p.FERUC = s.FERUC
	p.PCoalescing = s.PCoalescing
	p.CRCEscape = s.CRCEscape
	p.FlitsPerSecond = s.FlitsPerSecond
	s.FITCXLOneSw = p.FITCXL(1)
	s.FITRXLOneSw = p.FITRXL(1)
}

// String renders the estimate in a compact report form.
func (s *StagedEstimate) String() string {
	return fmt.Sprintf(
		"staged: FER=%.3g P(UC|err)=%.3g FER_UC=%.3g FIT(CXL,1sw)=%.3g FIT(RXL,1sw)=%.3g",
		s.FER, s.PUncorrectable, s.FERUC, s.FITCXLOneSw, s.FITRXLOneSw)
}
