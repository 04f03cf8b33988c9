package reliability

import (
	"math"
	"testing"
	"testing/quick"
)

// within reports |got-want| <= tol*|want|.
func within(got, want, tol float64) bool {
	return math.Abs(got-want) <= tol*math.Abs(want)
}

func TestDefaultParamsValidate(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsBadInputs(t *testing.T) {
	cases := []func(*Params){
		func(p *Params) { p.BER = -1 },
		func(p *Params) { p.BER = 1.5 },
		func(p *Params) { p.FlitBits = 0 },
		func(p *Params) { p.FERUC = -0.1 },
		func(p *Params) { p.PCoalescing = 2 },
		func(p *Params) { p.FlitsPerSecond = 0 },
		func(p *Params) { p.CRCEscape = -1 },
	}
	for i, mutate := range cases {
		p := DefaultParams()
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted invalid params %+v", i, p)
		}
	}
}

// TestEq1FER checks the paper's headline FER ≈ 2.0e-3 at BER=1e-6.
func TestEq1FER(t *testing.T) {
	fer := DefaultParams().FER()
	if !within(fer, 2.0e-3, 0.03) {
		t.Fatalf("FER = %g, want ≈2.0e-3", fer)
	}
	// The exact closed form: 1-(1-1e-6)^2048.
	exact := 1 - math.Pow(1-1e-6, 2048)
	if !within(fer, exact, 1e-9) {
		t.Fatalf("FER = %g, exact form %g", fer, exact)
	}
}

func TestEq1FERZeroBER(t *testing.T) {
	p := DefaultParams()
	p.BER = 0
	if fer := p.FER(); fer != 0 {
		t.Fatalf("FER at BER=0 is %g, want 0", fer)
	}
}

// TestEq1MillionErroneousFlits checks "1 million erroneous flits out of
// 500 million flits per second" (Section 7.1.1).
func TestEq1MillionErroneousFlits(t *testing.T) {
	n := DefaultParams().ExpectedErroneousFlitsPerSecond()
	if !within(n, 1.0e6, 0.05) {
		t.Fatalf("erroneous flits/s = %g, want ≈1e6", n)
	}
}

// TestEq3PCorrect checks "FEC corrects more than 98.5% of erroneous flits".
func TestEq3PCorrect(t *testing.T) {
	pc := DefaultParams().PCorrect()
	if pc <= 0.985 {
		t.Fatalf("p_correct = %g, want > 0.985", pc)
	}
	if pc >= 1 {
		t.Fatalf("p_correct = %g, want < 1", pc)
	}
}

// TestEq4FERUndetectedDirect checks FER_UD ≈ 1.6e-24.
func TestEq4FERUndetectedDirect(t *testing.T) {
	ud := DefaultParams().FERUndetectedDirect()
	if !within(ud, 1.6e-24, 0.05) {
		t.Fatalf("FER_UD = %g, want ≈1.6e-24", ud)
	}
}

// TestEq5FITDirect checks FIT ≈ 2.9e-3 for the direct connection.
func TestEq5FITDirect(t *testing.T) {
	fit := DefaultParams().FITDirect()
	if !within(fit, 2.9e-3, 0.05) {
		t.Fatalf("FIT_direct = %g, want ≈2.9e-3", fit)
	}
}

// TestEq6FERDrop checks the single-level drop rate equals FER_UC.
func TestEq6FERDrop(t *testing.T) {
	p := DefaultParams()
	if got := p.FERDrop(1); got != p.FERUC {
		t.Fatalf("FER_drop(1) = %g, want FER_UC = %g", got, p.FERUC)
	}
	if got := p.FERDrop(0); got != 0 {
		t.Fatalf("FER_drop(0) = %g, want 0", got)
	}
}

// TestEq7FEROrder checks FER_order = 3.0e-6 at one level, p=0.1.
func TestEq7FEROrder(t *testing.T) {
	fo := DefaultParams().FEROrder(1)
	if !within(fo, 3.0e-6, 1e-9) {
		t.Fatalf("FER_order = %g, want 3.0e-6", fo)
	}
}

// TestEq8FITCXLSwitched checks FIT ≈ 5.4e15 for CXL with one switch.
func TestEq8FITCXLSwitched(t *testing.T) {
	fit := DefaultParams().FITCXL(1)
	if !within(fit, 5.4e15, 0.05) {
		t.Fatalf("FIT_CXL(1) = %g, want ≈5.4e15", fit)
	}
}

// TestEq9FERUndetectedRXL checks FER_UD ≈ 1.6e-24 for RXL at one level.
func TestEq9FERUndetectedRXL(t *testing.T) {
	ud := DefaultParams().FERUndetectedRXL(1)
	// Two links contribute, so the value is ~2× the direct bound but must
	// stay within the same order of magnitude the paper reports.
	if ud < 1.6e-24 || ud > 4e-24 {
		t.Fatalf("FER_UD(RXL,1) = %g, want within [1.6e-24, 4e-24]", ud)
	}
}

// TestEq10FITRXLSwitched checks FIT stays ≈1e-3-scale for RXL with a switch.
func TestEq10FITRXLSwitched(t *testing.T) {
	fit := DefaultParams().FITRXL(1)
	if fit < 2.9e-3 || fit > 1.2e-2 {
		t.Fatalf("FIT_RXL(1) = %g, want milli-FIT scale", fit)
	}
}

// TestImprovement checks the ">1e18 times lower" claim at one level.
func TestImprovement(t *testing.T) {
	imp := DefaultParams().Improvement(1)
	if imp < 1e17 {
		t.Fatalf("CXL/RXL FIT ratio = %g, want > 1e17", imp)
	}
}

// TestFig8Shape checks the qualitative shape of Fig. 8: CXL reliability
// collapses by ~18 orders of magnitude at the first switching level and
// grows with depth; RXL stays nearly flat.
func TestFig8Shape(t *testing.T) {
	pts := DefaultParams().Fig8(8)
	if len(pts) != 9 {
		t.Fatalf("Fig8(8) returned %d points", len(pts))
	}
	// At level 0 both protocols are within a (1+FER_UC) factor of the
	// direct-connection FIT (RXL's formula counts the retry exposure).
	if !within(pts[0].FITCXL, pts[0].FITRXL, 1e-4) {
		t.Errorf("level-0 FITs diverge: CXL %g vs RXL %g", pts[0].FITCXL, pts[0].FITRXL)
	}
	jump := pts[1].FITCXL / pts[0].FITCXL
	if jump < 1e17 {
		t.Errorf("CXL FIT jump at level 1 = %g, want > 1e17", jump)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].FITCXL <= pts[i-1].FITCXL {
			t.Errorf("CXL FIT not increasing at level %d", i)
		}
		if pts[i].FITRXL < pts[i-1].FITRXL {
			t.Errorf("RXL FIT decreasing at level %d", i)
		}
	}
	// RXL "nearly unchanged": less than 10× over 8 levels.
	if ratio := pts[8].FITRXL / pts[0].FITRXL; ratio > 10 {
		t.Errorf("RXL FIT grew %gx over 8 levels, want < 10x", ratio)
	}
}

func TestFERDropNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	DefaultParams().FERDrop(-1)
}

func TestFig8NegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	DefaultParams().Fig8(-1)
}

// TestFERMonotonicInBER: property — FER is monotonically non-decreasing in
// BER and bounded to [0,1].
func TestFERMonotonicInBER(t *testing.T) {
	f := func(a, b uint16) bool {
		p1, p2 := DefaultParams(), DefaultParams()
		ber1 := float64(a) / float64(math.MaxUint16) * 1e-3
		ber2 := float64(b) / float64(math.MaxUint16) * 1e-3
		if ber1 > ber2 {
			ber1, ber2 = ber2, ber1
		}
		p1.BER, p2.BER = ber1, ber2
		f1, f2 := p1.FER(), p2.FER()
		return f1 >= 0 && f2 <= 1 && f1 <= f2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestFITLinearInRate: property — FIT is linear in the per-flit rate.
func TestFITLinearInRate(t *testing.T) {
	p := DefaultParams()
	f := func(r uint32) bool {
		rate := float64(r) * 1e-12
		return within(p.FIT(2*rate), 2*p.FIT(rate), 1e-12) || rate == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestFEROrderScalesWithCoalescing: doubling p_coalescing doubles the
// ordering-failure rate.
func TestFEROrderScalesWithCoalescing(t *testing.T) {
	p := DefaultParams()
	base := p.FEROrder(1)
	p.PCoalescing *= 2
	if !within(p.FEROrder(1), 2*base, 1e-12) {
		t.Fatal("FER_order not linear in p_coalescing")
	}
}

// --- Monte-Carlo cross-checks -------------------------------------------

// TestMCFERMatchesEq1 validates Eq. 1 against the simulated channel at an
// accelerated BER where events are plentiful.
func TestMCFERMatchesEq1(t *testing.T) {
	const ber = 5e-4 // ~64% of flits erroneous at 2048 bits
	s := MeasureFERPath(ber, 1, 20000, 42)
	if !within(s.FER, s.Analytic, 0.05) {
		t.Fatalf("measured FER %g vs analytic %g", s.FER, s.Analytic)
	}
}

func TestMCFERLowRate(t *testing.T) {
	const ber = 1e-5
	s := MeasureFERPath(ber, 1, 50000, 7)
	if !within(s.FER, s.Analytic, 0.2) {
		t.Fatalf("measured FER %g vs analytic %g", s.FER, s.Analytic)
	}
}

// TestMCFECBurstCorrection: bursts within the 3-way SSC budget are always
// corrected.
func TestMCFECBurstCorrection(t *testing.T) {
	for _, n := range []int{1, 2, 3} {
		o := MeasureFECBurst(n, 2000, uint64(n))
		if o.Detected+o.Miscorrected != 0 {
			t.Errorf("burst %dB: %d detected, %d miscorrected; want all corrected",
				n, o.Detected, o.Miscorrected)
		}
		if o.Corrected == 0 {
			t.Errorf("burst %dB: nothing corrected", n)
		}
	}
}

// TestMCFECBurstDetectionFractions validates the Section 2.5 fractions:
// the shortened RS interleave detects ≈2/3 of 4-symbol bursts, ≈8/9 of
// 5-symbol bursts, and ≈26/27 of ≥6-symbol bursts.
func TestMCFECBurstDetectionFractions(t *testing.T) {
	cases := []struct {
		burst int
		want  float64
		tol   float64
	}{
		{4, 2.0 / 3.0, 0.06},
		{5, 8.0 / 9.0, 0.04},
		{6, 26.0 / 27.0, 0.03},
		{8, 26.0 / 27.0, 0.03},
	}
	for _, c := range cases {
		o := MeasureFECBurst(c.burst, 30000, uint64(c.burst)*977)
		got := o.DetectionRate()
		if !within(got, c.want, c.tol) {
			t.Errorf("burst %dB: detection rate %.4f, want ≈%.4f (detected=%d mis=%d)",
				c.burst, got, c.want, o.Detected, o.Miscorrected)
		}
	}
}

// TestStagedEstimateCompose composes measured stages into FIT values and
// checks they land within an order of magnitude of the closed forms (the
// stages are measured at accelerated rates, so only the composition logic
// is under test here).
func TestStagedEstimateCompose(t *testing.T) {
	p := DefaultParams()
	est := StagedEstimate{
		FER:            p.FER(),
		PUncorrectable: p.FERUC / p.FER(),
		PFECMiss:       1.0 / 3.0,
		PCoalescing:    p.PCoalescing,
		CRCEscape:      p.CRCEscape,
		FlitsPerSecond: p.FlitsPerSecond,
	}
	est.Compose()
	if !within(est.FERUC, p.FERUC, 1e-9) {
		t.Fatalf("composed FER_UC %g, want %g", est.FERUC, p.FERUC)
	}
	if !within(est.FITCXLOneSw, p.FITCXL(1), 1e-9) {
		t.Fatalf("composed FIT_CXL %g, want %g", est.FITCXLOneSw, p.FITCXL(1))
	}
	if !within(est.FITRXLOneSw, p.FITRXL(1), 1e-9) {
		t.Fatalf("composed FIT_RXL %g, want %g", est.FITRXLOneSw, p.FITRXL(1))
	}
	if est.String() == "" {
		t.Fatal("empty report")
	}
}

func TestMeasureFERPanicsOnZeroFlits(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	MeasureFERPath(1e-6, 1, 0, 1)
}

func TestMeasureFECBurstPanicsOnBadArgs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	MeasureFECBurst(0, 10, 1)
}
