package phy

import (
	"math"
	"testing"
)

// TestTiltedChannelIsPlainProposalChannel: the tilting hook must not
// perturb the schedule semantics — a tilted schedule walks bit-identically
// to a plain channel built at the proposal rate, so the schedule fast
// path (NextEvent/Advance/Traverse) composes untouched.
func TestTiltedChannelIsPlainProposalChannel(t *testing.T) {
	const p, q, unit = 1e-9, 5e-4, 2048
	tilted := TiltedChannel(p, q, NewRNG(7), unit)
	plain := NewSharedSchedule(q, 0, NewRNG(7), unit)
	for i := 0; i < 5000; i++ {
		if a, b := tilted.NextEvent(), plain.NextEvent(); a != b {
			t.Fatalf("unit %d: tilted NextEvent %d != plain %d", i, a, b)
		}
		if a, b := tilted.Traverse(), plain.Traverse(); a != b {
			t.Fatalf("unit %d: tilted Traverse %d != plain %d", i, a, b)
		}
	}
}

func TestTiltedChannelValidation(t *testing.T) {
	for _, bad := range []struct{ p, q float64 }{
		{0, 1e-4},    // zero truth
		{1e-4, 1e-6}, // proposal below truth
		{1e-4, 1},    // proposal at 1
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("TiltedChannel(%g, %g) accepted", bad.p, bad.q)
				}
			}()
			TiltedChannel(bad.p, bad.q, NewRNG(1), 2048)
		}()
	}
	// Equal rates are the untilted degenerate case and must be accepted.
	if s := TiltedChannel(1e-6, 1e-6, NewRNG(1), 2048); s.BER != 1e-6 {
		t.Fatalf("untilted channel BER %g", s.BER)
	}
}

// TestUnitLogLRTelescopes: the per-unit closed form must equal the product
// of the per-gap ratios the schedule actually drew, with the trailing
// residual gap contributing its clean-bit factor — i.e. summing UnitLogLR
// over units of a walk reproduces the gap-level likelihood ratio of the
// whole stream. This is the correctness core of the IS estimators.
func TestUnitLogLRTelescopes(t *testing.T) {
	const p, q, unit, units = 1e-7, 3e-4, 2048, 4000

	// Walk the tilted schedule and fold the per-unit closed form.
	s := TiltedChannel(p, q, NewRNG(42), unit)
	unitSide := 0.0
	totalFlips := 0
	for i := 0; i < units; i++ {
		k := s.Traverse()
		totalFlips += k
		unitSide += UnitLogLR(p, q, unit, k)
	}
	if totalFlips == 0 {
		t.Fatal("walk saw no error events; raise units or proposal")
	}

	// Reconstruct the same walk gap by gap on an identical RNG stream:
	// each drawn gap contributes GapLogLR, and the residual clean bits the
	// last gap left before the stream's end contribute only their
	// clean-bit factor (memorylessness splits the geometric factor).
	rng := NewRNG(42)
	gapSide := 0.0
	consumed := 0 // bits consumed by full gap+error steps
	total := units * unit
	for {
		g := rng.Geometric(q)
		if consumed+g >= total {
			gapSide += float64(total-consumed) * (math.Log1p(-p) - math.Log1p(-q))
			break
		}
		gapSide += GapLogLR(p, q, g)
		consumed += g + 1
	}

	if diff := math.Abs(unitSide - gapSide); diff > 1e-6*math.Abs(gapSide) {
		t.Fatalf("unit-side log LR %.9f != gap-side %.9f (diff %g)", unitSide, gapSide, diff)
	}
}

// TestUnitLogLRIdentities: degenerate cases the estimators rely on.
func TestUnitLogLRIdentities(t *testing.T) {
	// No tilt → unit weight regardless of flips.
	for _, k := range []int{0, 1, 7} {
		if w := UnitLogLR(1e-6, 1e-6, 2048, k); w != 0 {
			t.Fatalf("untilted UnitLogLR(k=%d) = %g, want 0", k, w)
		}
	}
	// A clean unit's weight is the pure clean-bit factor, > 0 in log
	// (clean units are more likely under the truth than the proposal).
	if w := UnitLogLR(1e-9, 1e-3, 2048, 0); w <= 0 {
		t.Fatalf("clean-unit log weight %g, want > 0", w)
	}
	// A flipped bit is heavily penalized when the truth is far below the
	// proposal.
	if w := UnitLogLR(1e-9, 1e-3, 2048, 1); w >= 0 {
		t.Fatalf("one-flip log weight %g, want < 0", w)
	}
	// GapLogLR at equal rates is exactly zero.
	if w := GapLogLR(1e-4, 1e-4, 12345); w != 0 {
		t.Fatalf("untilted GapLogLR = %g", w)
	}
}

// TestUnitWeightMeanIsOne: the empirical mean of exp(UnitLogLR) over
// tilted trials must be 1 — the sum-to-one sanity of importance weights.
func TestUnitWeightMeanIsOne(t *testing.T) {
	const p, q, unit, units = 1e-6, 4e-4, 2048, 200000
	s := TiltedChannel(p, q, NewRNG(3), unit)
	sum, sum2 := 0.0, 0.0
	for i := 0; i < units; i++ {
		w := math.Exp(UnitLogLR(p, q, unit, s.Traverse()))
		sum += w
		sum2 += w * w
	}
	mean := sum / units
	sigma := math.Sqrt((sum2/units - mean*mean) / units)
	if math.Abs(mean-1) > 4*sigma {
		t.Fatalf("mean weight %.6f ± %.6f not consistent with 1", mean, sigma)
	}
}
