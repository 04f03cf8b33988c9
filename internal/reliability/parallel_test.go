package reliability

import (
	"context"
	"errors"
	"math"
	"runtime"
	"testing"

	"repro/internal/runner"
)

// A one-point sharded FER measurement (MCBERSweep at a single BER)
// merges to bit-identical aggregates at workers=1, workers=4, and
// workers=NumCPU.
func TestMeasureFERShardedDeterministic(t *testing.T) {
	ctx := context.Background()
	const ber, flits, shards = 5e-4, 8000, 16
	measure := func(workers int) FERSample {
		t.Helper()
		pts, err := MCBERSweep(ctx, runner.Pool{Workers: workers, BaseSeed: 42}, []float64{ber}, flits, shards)
		if err != nil {
			t.Fatal(err)
		}
		return pts[0].Sample
	}
	ref := measure(1)
	for _, w := range []int{4, runtime.NumCPU()} {
		if got := measure(w); got != ref {
			t.Fatalf("workers=%d: %+v != %+v", w, got, ref)
		}
	}
	if ref.Flits != flits {
		t.Fatalf("merged %d flits, want %d", ref.Flits, flits)
	}
	// The measurement must agree with Eq. 1 within Monte-Carlo noise
	// (≈4000 expected events here; 10% is generous).
	if math.Abs(ref.FER-ref.Analytic)/ref.Analytic > 0.10 {
		t.Fatalf("measured FER %.4f vs analytic %.4f", ref.FER, ref.Analytic)
	}
}

// TestMeasureFECBurstShardedDeterministic: same invariant for the staged
// FEC decode outcomes, plus the Section 2.5 detection fraction.
func TestMeasureFECBurstShardedDeterministic(t *testing.T) {
	ctx := context.Background()
	const burst, trials, shards = 4, 4000, 16
	ref, err := MeasureFECBurstSharded(ctx, runner.Pool{Workers: 1, BaseSeed: 7}, burst, trials, shards)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{4, runtime.NumCPU()} {
		got, err := MeasureFECBurstSharded(ctx, runner.Pool{Workers: w, BaseSeed: 7}, burst, trials, shards)
		if err != nil {
			t.Fatal(err)
		}
		if got != ref {
			t.Fatalf("workers=%d: %+v != %+v", w, got, ref)
		}
	}
	if ref.Trials != trials {
		t.Fatalf("merged %d trials, want %d", ref.Trials, trials)
	}
	// Paper Section 2.5: 4-symbol bursts are detected ≈2/3 of the time.
	if d := ref.DetectionRate(); math.Abs(d-2.0/3.0) > 0.05 {
		t.Fatalf("4B burst detection %.4f, want ≈0.667", d)
	}
}

// TestMCBERSweepDeterministic: the multi-point sweep keeps per-point
// aggregates independent of worker count and ordered by BER.
func TestMCBERSweepDeterministic(t *testing.T) {
	ctx := context.Background()
	bers := []float64{2e-4, 5e-4, 1e-3}
	ref, err := MCBERSweep(ctx, runner.Pool{Workers: 1, BaseSeed: 3}, bers, 4000, 8)
	if err != nil {
		t.Fatal(err)
	}
	got, err := MCBERSweep(ctx, runner.Pool{Workers: runtime.NumCPU() + 3, BaseSeed: 3}, bers, 4000, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref {
		if ref[i] != got[i] {
			t.Fatalf("point %d differs across worker counts", i)
		}
		if ref[i].BER != bers[i] || ref[i].Sample.Flits != 4000 {
			t.Fatalf("point %d malformed: %+v", i, ref[i])
		}
	}
	// FER must be monotone in BER across this range.
	if !(ref[0].Sample.FER < ref[1].Sample.FER && ref[1].Sample.FER < ref[2].Sample.FER) {
		t.Fatalf("measured FER not monotone in BER: %+v", ref)
	}
}

// TestStagedSharded: the composed staged estimate lands near the paper's
// defaults and stays deterministic across worker counts.
func TestStagedSharded(t *testing.T) {
	ctx := context.Background()
	a, err := StagedSharded(ctx, runner.Pool{Workers: 1, BaseSeed: 9}, 5e-4, 6000, 4, 3000, 12)
	if err != nil {
		t.Fatal(err)
	}
	b, err := StagedSharded(ctx, runner.Pool{Workers: runtime.NumCPU() + 1, BaseSeed: 9}, 5e-4, 6000, 4, 3000, 12)
	if err != nil {
		t.Fatal(err)
	}
	if *a != *b {
		t.Fatalf("staged estimate differs across worker counts:\n%+v\n%+v", a, b)
	}
	// The rescaled FER should be near Eq. 1 at the default BER, and the
	// composed FER_UC near the Eq. 2 spec bound.
	p := DefaultParams()
	if a.FER <= 0 || math.Abs(a.FER-p.FER())/p.FER() > 0.15 {
		t.Fatalf("rescaled FER %.3g vs analytic %.3g", a.FER, p.FER())
	}
	if math.Abs(a.FERUC-p.FERUC)/p.FERUC > 0.15 {
		t.Fatalf("composed FER_UC %.3g vs spec %.3g", a.FERUC, p.FERUC)
	}
	// Stage 3 at 4-symbol bursts: the Section 2.5 miss fraction ≈1/3.
	if math.Abs(a.PFECMiss-1.0/3.0) > 0.05 {
		t.Fatalf("staged P(FEC miss) %.4f, want ≈0.333", a.PFECMiss)
	}
	if a.FITCXLOneSw <= a.FITRXLOneSw {
		t.Fatalf("staged FITs lost the paper's ordering: CXL %.3g vs RXL %.3g", a.FITCXLOneSw, a.FITRXLOneSw)
	}
}

// TestShardedValidation: bad arguments and canceled contexts error out.
func TestShardedValidation(t *testing.T) {
	ctx := context.Background()
	if _, err := MCBERSweep(ctx, runner.Pool{}, []float64{1e-4}, 0, 4); err == nil {
		t.Fatal("zero flits accepted")
	}
	if _, err := MeasureFECBurstSharded(ctx, runner.Pool{}, 0, 10, 4); err == nil {
		t.Fatal("zero burst length accepted")
	}
	if _, err := MCBERSweep(ctx, runner.Pool{}, []float64{1e-4}, 10, 0); err == nil {
		t.Fatal("zero shards accepted")
	}
	canceled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := MCBERSweep(canceled, runner.Pool{}, []float64{1e-4}, 100, 4); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled context: %v", err)
	}
}
