package rarevent

import (
	"context"
	"math"
	"testing"

	"repro/internal/phy"
)

// bg is the uncancelled context the estimator tests run under.
var bg = context.Background()

// TestISFERMatchesAnalyticDeepTail: at BER 1e-9 — where naive Monte-Carlo
// would need ~5e8 flits per event — the IS estimate must land within 3σ
// of Eq. 1 with a tight reported relative error, from a budget that runs
// in milliseconds.
func TestISFERMatchesAnalyticDeepTail(t *testing.T) {
	for _, ber := range []float64{1e-8, 1e-9, 1e-10} {
		e := ISFER{BER: ber, Proposal: AutoProposalFER(ber)}
		est := e.Run(bg, 400000, 1)
		if est.Value <= 0 {
			t.Fatalf("BER %g: zero estimate %+v", ber, est)
		}
		if est.RelErr > 0.05 {
			t.Fatalf("BER %g: relative error %.3f too loose", ber, est.RelErr)
		}
		if s := est.Sigma(est.Analytic); s > 3 {
			t.Fatalf("BER %g: estimate %.4g vs analytic %.4g is %.1fσ off", ber, est.Value, est.Analytic, s)
		}
	}
}

// TestISWeightsSumToOne: the empirical mean importance weight over all
// trials must be 1 within sampling noise — a broken likelihood ratio
// shows up here before it shows up as bias.
func TestISWeightsSumToOne(t *testing.T) {
	for _, e := range []ISFER{
		{BER: 1e-6, Proposal: AutoProposalFER(1e-6)},
		{BER: 1e-9, Proposal: AutoProposalUC(1e-9)},
	} {
		est := e.Run(bg, 300000, 9)
		if math.Abs(est.MeanWeight-1) > 0.02 {
			t.Fatalf("BER %g proposal %g: mean weight %.5f, want ≈1", e.BER, e.Proposal, est.MeanWeight)
		}
	}
}

// TestISFERUntiltedReducesToNaive: with proposal == BER every weight is
// exactly 1 and the estimator must reproduce the naive schedule walk —
// same hit count, Value = Hits/Trials exactly.
func TestISFERUntiltedReducesToNaive(t *testing.T) {
	const ber, trials = 1e-4, 100000
	est := ISFER{BER: ber, Proposal: ber}.Run(bg, trials, 5)

	ch := phy.NewSharedSchedule(ber, 0, phy.NewRNG(5), UnitBits)
	hits := 0
	for i := 0; i < trials; {
		if clean := ch.NextEvent() / UnitBits; clean > 0 {
			if clean > trials-i {
				clean = trials - i
			}
			ch.GrantSpan(1, clean)
			i += clean
			continue
		}
		if ch.Traverse() > 0 {
			hits++
		}
		i++
	}
	if est.Hits != hits {
		t.Fatalf("untilted IS hits %d != naive schedule hits %d", est.Hits, hits)
	}
	if est.Value != float64(hits)/trials {
		t.Fatalf("untilted IS value %.6g != hit fraction %.6g", est.Value, float64(hits)/trials)
	}
	if est.MeanWeight != 1 {
		t.Fatalf("untilted mean weight %.6f", est.MeanWeight)
	}
}

// TestISEstimatorsDeterministic: identical (trials, seed) must reproduce
// identical estimates — the property the sharded wrappers build on.
func TestISEstimatorsDeterministic(t *testing.T) {
	for _, e := range []Estimator{
		ISFER{BER: 1e-9, Proposal: AutoProposalFER(1e-9)},
		ISUncorrectable{BER: 1e-9, Proposal: AutoProposalUC(1e-9)},
		ISUndetected{BER: 1e-9, Proposal: AutoProposalUC(1e-9)},
		Splitting{BER: 1e-5, Level: 3},
	} {
		a := e.Run(bg, 20000, 77)
		b := e.Run(bg, 20000, 77)
		if a != b {
			t.Fatalf("%T: reruns diverge:\n%+v\n%+v", e, a, b)
		}
	}
}

// TestISUncorrectableOrdering: the staged chain must stay ordered —
// FER_UC < FER, FER_UD = miss-mass × 2^-64 ≪ FER_UC — and every link
// converge with finite relative error at the deep tail.
func TestISUncorrectableOrdering(t *testing.T) {
	const ber, trials = 1e-9, 150000
	fer := ISFER{BER: ber, Proposal: AutoProposalFER(ber)}.Run(bg, trials, 3)
	uc := ISUncorrectable{BER: ber, Proposal: AutoProposalUC(ber)}.Run(bg, trials, 3)
	ud := ISUndetected{BER: ber, Proposal: AutoProposalUC(ber)}.Run(bg, trials, 3)

	if !(uc.Value > 0 && uc.Value < fer.Value) {
		t.Fatalf("FER_UC %.4g not inside (0, FER=%.4g)", uc.Value, fer.Value)
	}
	if uc.RelErr > 0.2 {
		t.Fatalf("FER_UC relative error %.3f too loose", uc.RelErr)
	}
	if ud.Value <= 0 || ud.Value >= uc.Value {
		t.Fatalf("FER_UD %.4g not inside (0, FER_UC=%.4g)", ud.Value, uc.Value)
	}
	// The analytic stage-4 escape is folded in exactly: the undetected
	// estimate is 2^-64 of its own miss-mass, so the ratio to FER_UC is
	// bounded by 2^-64.
	if ud.Value > uc.Value*math.Pow(2, -64)*1.000001 {
		t.Fatalf("FER_UD %.4g exceeds FER_UC × 2^-64 = %.4g", ud.Value, uc.Value*math.Pow(2, -64))
	}
}

// TestSplittingMatchesBinomialTail: the multilevel-splitting estimate of
// the distinct-symbol pile-up must agree with the exact binomial tail.
// At BER 1e-5 and level 4 the event probability is ~7e-9 — already far
// beyond what the trial budget could sample naively (~1e5 trials).
func TestSplittingMatchesBinomialTail(t *testing.T) {
	s := Splitting{BER: 1e-5, Level: 4}
	est := s.Run(bg, 120000, 11)
	if est.Value <= 0 {
		t.Fatalf("zero splitting estimate %+v", est)
	}
	if est.Analytic != AnalyticSymbolTail(1e-5, 4) {
		t.Fatalf("estimate lost its analytic comparator: %+v", est)
	}
	rel := math.Abs(est.Value-est.Analytic) / est.Analytic
	// The per-stage binomial variance model underestimates slightly
	// (entry states are shared across clones), so accept 4× the reported
	// relative error with a 10% floor.
	tol := math.Max(4*est.RelErr, 0.10)
	if rel > tol {
		t.Fatalf("splitting %.4g vs analytic %.4g: off by %.1f%% (tolerance %.1f%%)",
			est.Value, est.Analytic, 100*rel, 100*tol)
	}
}

// TestSplittingLevelOne: a single level degrades to plain schedule
// counting of erroneous flits, pinned against Eq. 1.
func TestSplittingLevelOne(t *testing.T) {
	est := Splitting{BER: 1e-4, Level: 1}.Run(bg, 50000, 2)
	ana := AnalyticSymbolTail(1e-4, 1)
	if math.Abs(est.Value-ana)/ana > 0.15 {
		t.Fatalf("level-1 splitting %.4g vs analytic %.4g", est.Value, ana)
	}
}

// TestAnalyticSymbolTail: closed-form sanity at the edges.
func TestAnalyticSymbolTail(t *testing.T) {
	if v := AnalyticSymbolTail(1e-6, 0); v != 1 {
		t.Fatalf("level 0 tail %g", v)
	}
	if v := AnalyticSymbolTail(1e-6, 257); v != 0 {
		t.Fatalf("level 257 tail %g", v)
	}
	// Level 1 equals Eq. 1 (any erroneous symbol ⇔ any erroneous bit).
	ana := -math.Expm1(float64(UnitBits) * math.Log1p(-1e-6))
	if v := AnalyticSymbolTail(1e-6, 1); math.Abs(v-ana)/ana > 1e-12 {
		t.Fatalf("level-1 tail %.15g != Eq.1 %.15g", v, ana)
	}
	// Tails are monotone decreasing in level.
	prev := math.Inf(1)
	for l := 1; l <= 6; l++ {
		v := AnalyticSymbolTail(1e-6, l)
		if v >= prev {
			t.Fatalf("tail not monotone at level %d: %g >= %g", l, v, prev)
		}
		prev = v
	}
}

// TestMergeIS: merging shard estimates must equal running the moments in
// one pass, and preserve the sum-to-one diagnostic.
func TestMergeIS(t *testing.T) {
	e := ISFER{BER: 1e-9, Proposal: AutoProposalFER(1e-9)}
	a, b := e.Run(bg, 50000, 1), e.Run(bg, 50000, 2)
	m := MergeIS([]Estimate{a, b})
	if m.Trials != a.Trials+b.Trials || m.Hits != a.Hits+b.Hits {
		t.Fatalf("merge lost counts: %+v", m)
	}
	wantValue := (a.SumWZ + b.SumWZ) / float64(m.Trials)
	if m.Value != wantValue {
		t.Fatalf("merged value %.9g, want %.9g", m.Value, wantValue)
	}
	if math.Abs(m.MeanWeight-1) > 0.02 {
		t.Fatalf("merged mean weight %.5f", m.MeanWeight)
	}
	if m.RelErr >= math.Max(a.RelErr, b.RelErr)*1.01 {
		t.Fatalf("merging did not tighten the estimate: %.4f vs (%.4f, %.4f)", m.RelErr, a.RelErr, b.RelErr)
	}
}

// TestMergeShards: the splitting merge averages equal-effort shard
// estimates and tightens the error bar.
func TestMergeShards(t *testing.T) {
	s := Splitting{BER: 1e-5, Level: 3}
	parts := []Estimate{s.Run(bg, 20000, 1), s.Run(bg, 20000, 2), s.Run(bg, 20000, 3), {}}
	m := MergeShards(parts)
	want := (parts[0].Value + parts[1].Value + parts[2].Value) / 3
	if math.Abs(m.Value-want) > 1e-18 {
		t.Fatalf("merged value %.6g, want %.6g", m.Value, want)
	}
	if m.RelErr >= parts[0].RelErr {
		t.Fatalf("merging did not tighten: %.4f vs %.4f", m.RelErr, parts[0].RelErr)
	}
	if m.Trials != parts[0].Trials+parts[1].Trials+parts[2].Trials {
		t.Fatalf("merged trials %d", m.Trials)
	}
}

// TestEstimatorValidation: misuse panics rather than returning garbage.
func TestEstimatorValidation(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		f()
	}
	mustPanic("ISFER zero trials", func() { ISFER{BER: 1e-6, Proposal: 1e-4}.Run(bg, 0, 1) })
	mustPanic("ISUncorrectable zero trials", func() { ISUncorrectable{BER: 1e-6, Proposal: 1e-4}.Run(bg, 0, 1) })
	mustPanic("Splitting zero budget", func() { Splitting{BER: 1e-5}.Run(bg, 0, 1) })
	mustPanic("Splitting bad level", func() { Splitting{BER: 1e-5, Level: 99}.Run(bg, 100, 1) })
	mustPanic("Splitting bad BER", func() { Splitting{BER: 0}.Run(bg, 100, 1) })
}
