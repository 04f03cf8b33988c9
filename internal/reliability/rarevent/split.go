package rarevent

import (
	"context"
	"math"

	"repro/internal/phy"
)

// Multilevel splitting on near-miss trajectories.
//
// The rare event is an error *pile-up*: a flit accumulating Level
// distinct erroneous symbols (bytes). The RS interleave corrects one
// symbol per codeword, so k symbol errors inside one interleave depth sit
// k−1 levels up the near-miss ladder toward an uncorrectable flit —
// P(≥4 distinct symbols) at the nominal BER 1e-6 is ~1e-16, far beyond
// naive Monte-Carlo and, because the *rate* is feasible while the
// *pile-up* is not, the natural complement to importance sampling.
//
// A trajectory is the left-to-right bit walk of one flit through the
// geometric error-event schedule; its importance function is the count of
// distinct erroneous symbols so far. Splitting estimates
//
//	P(count ≥ L) = p₁ × Π_{ℓ=2..L} p_ℓ,   p_ℓ = P(reach ℓ | reached ℓ−1)
//
// by fixed-effort stages: stage 1 walks flits on the (bulk-skipped)
// schedule and records each first-error state; stage ℓ restarts
// trajectories from the recorded level-(ℓ−1) entry states — cloning the
// near-miss prefix, memorylessness makes the continuation exact — and
// counts the fraction that reach level ℓ before the flit ends. A pilot
// run calibrates per-stage effort: conditional probabilities fall with
// depth (entry states sit later in the flit), so effort is allocated
// ∝ sqrt((1−p̂_ℓ)/p̂_ℓ), the balanced fixed-effort optimum.

// maxSplitLevel bounds the near-miss ladder; beyond ~8 distinct symbols
// the per-stage conditionals at any interesting BER are so small that
// splitting effort explodes, and nothing in the failure model needs it.
const maxSplitLevel = 8

// minStageEntries is the pilot's starvation threshold: a stage whose
// pilot finds fewer successes than this doubles its effort (bounded)
// before calibrating on the observed rate.
const minStageEntries = 8

// pilotEffort is the per-stage pilot trajectory budget used to calibrate
// the main run's effort allocation.
const pilotEffort = 4096

// Splitting is the multilevel-splitting estimator for the symbol pile-up
// tail P(≥ Level distinct erroneous symbols in one flit) at BER.
type Splitting struct {
	BER   float64
	Level int // target distinct-symbol count, 1..8 (default 4: one past correctable)
}

// entry is a trajectory state crossing a level: the bit position of the
// error that completed the level and the distinct symbols hit so far.
type entry struct {
	bit  int
	syms []uint8
}

// Run implements Estimator. `trials` is the main run's total trajectory
// budget across stages (the pilot spends its own, included in the
// returned Trials); the estimate's Analytic field carries the exact
// binomial symbol-tail for cross-validation. Cancellation is observed
// between stage iterations and inside the stage scans; a cancelled run
// returns a partial estimate the caller must discard per the Estimator
// contract.
func (s Splitting) Run(ctx context.Context, trials int, seed uint64) Estimate {
	level := s.Level
	if level == 0 {
		level = 4
	}
	if level < 1 || level > maxSplitLevel {
		panic("rarevent: Splitting level out of 1..8")
	}
	if trials <= 0 {
		panic("rarevent: Splitting needs a positive trial budget")
	}
	if s.BER <= 0 || s.BER >= 1 {
		panic("rarevent: Splitting needs BER in (0,1)")
	}
	rng := phy.NewRNG(seed)
	est := Estimate{Analytic: AnalyticSymbolTail(s.BER, level), MeanWeight: 1}

	// Pilot: estimate every conditional once, growing effort past
	// starvation, purely to shape the main allocation.
	pilotProbs := make([]float64, level)
	entries := []entry(nil)
	for l := 0; l < level; l++ {
		effort := pilotEffort
		var succ []entry
		var n int
		for try := 0; ; try++ {
			var more []entry
			var m int
			if l == 0 {
				more, m = s.scanStage(ctx, rng, effort)
			} else {
				more, m = s.continueStage(ctx, rng, entries, effort)
			}
			succ = append(succ, more...)
			n += m
			if len(succ) >= minStageEntries || try >= 6 || ctx.Err() != nil {
				break
			}
			effort *= 2
		}
		est.Trials += n
		if ctx.Err() != nil {
			est.RelErr = math.Inf(1)
			return est
		}
		if len(succ) == 0 {
			// The ladder starved even after growth: report a zero
			// estimate with infinite relative error rather than lie.
			est.RelErr = math.Inf(1)
			return est
		}
		pilotProbs[l] = float64(len(succ)) / float64(n)
		entries = succ
	}

	// Main run: allocate the budget ∝ sqrt((1−p)/p) per stage.
	weights := make([]float64, level)
	var wsum float64
	for l, p := range pilotProbs {
		weights[l] = math.Sqrt((1 - p) / p)
		wsum += weights[l]
	}
	logP, relvar := 0.0, 0.0
	entries = nil
	for l := 0; l < level; l++ {
		effort := int(float64(trials) * weights[l] / wsum)
		if effort < minStageEntries*2 {
			effort = minStageEntries * 2
		}
		var succ []entry
		var n int
		if l == 0 {
			succ, n = s.scanStage(ctx, rng, effort)
		} else {
			succ, n = s.continueStage(ctx, rng, entries, effort)
		}
		est.Trials += n
		if ctx.Err() != nil {
			est.RelErr = math.Inf(1)
			est.Value = 0
			return est
		}
		if len(succ) == 0 {
			est.RelErr = math.Inf(1)
			est.Value = 0
			return est
		}
		p := float64(len(succ)) / float64(n)
		logP += math.Log(p)
		relvar += (1 - p) / (p * float64(n))
		entries = succ
		est.Hits = len(succ)
	}
	est.Value = math.Exp(logP)
	est.Variance = est.Value * est.Value * relvar
	est.RelErr = math.Sqrt(relvar)
	return est
}

// scanStage examines `effort` flits on a burst-free schedule drawn from
// the stage RNG and returns the first-error entry states (level 1) plus
// the number of flits examined. phy.SharedSchedule.Walk bulk-advances the
// clean flits, so stage 1 stays feasible even at deep-tail BERs where
// hits are one in millions. A struck flit records its first error's bit
// and then Traverses the flit: that draws the gaps of the flit's
// remaining errors (they belong to trajectories the continuation stages
// resample) and re-anchors the process at the next flit boundary.
func (s Splitting) scanStage(ctx context.Context, rng *phy.RNG, effort int) ([]entry, int) {
	var out []entry
	sched := phy.NewSharedSchedule(s.BER, 0, rng, UnitBits)
	sched.Walk(ctx, 1, effort, func() {
		bit := sched.NextEvent()
		out = append(out, entry{bit: bit, syms: []uint8{uint8(bit / 8)}})
		sched.Traverse()
	})
	return out, effort
}

// cancelCheckMask sets continueStage's context-poll period: every 4096
// trajectories, like Walk's.
const cancelCheckMask = 4095

// continueStage restarts `effort` trajectories from the given entry
// states (cycled round-robin) and returns the states that reached the
// next level before their flit ended.
func (s Splitting) continueStage(ctx context.Context, rng *phy.RNG, entries []entry, effort int) ([]entry, int) {
	var out []entry
	for t := 0; t < effort; t++ {
		if t&cancelCheckMask == 0 && ctx.Err() != nil {
			break
		}
		e := entries[t%len(entries)]
		pos := e.bit
		for {
			pos += 1 + rng.Geometric(s.BER)
			if pos >= UnitBits {
				break // flit ended one error short: near miss
			}
			sym := uint8(pos / 8)
			if containsSym(e.syms, sym) {
				continue // same symbol struck again; importance unchanged
			}
			syms := make([]uint8, len(e.syms), len(e.syms)+1)
			copy(syms, e.syms)
			out = append(out, entry{bit: pos, syms: append(syms, sym)})
			break
		}
	}
	return out, effort
}

func containsSym(syms []uint8, s uint8) bool {
	for _, v := range syms {
		if v == s {
			return true
		}
	}
	return false
}

// AnalyticSymbolTail returns the exact probability that a 256-symbol flit
// has at least `level` distinct erroneous symbols under iid bit errors at
// `ber`: symbols fail independently with s = 1−(1−ber)^8, so the tail is
// binomial — the closed-form cross-check the splitting tests pin against.
func AnalyticSymbolTail(ber float64, level int) float64 {
	const symbols = UnitBits / 8
	s := -math.Expm1(8 * math.Log1p(-ber))
	if level <= 0 {
		return 1
	}
	if level > symbols {
		return 0
	}
	// Sum the dominant ascending terms of the binomial tail; at rare-event
	// operating points the first term dominates and the series collapses
	// in a few iterations.
	logTerm := logChoose(symbols, level) + float64(level)*math.Log(s) + float64(symbols-level)*math.Log1p(-s)
	total := 0.0
	for j := level; j <= symbols; j++ {
		term := math.Exp(logTerm)
		total += term
		if term < total*1e-16 {
			break
		}
		// term(j+1)/term(j) = (S-j)/(j+1) × s/(1-s)
		logTerm += math.Log(float64(symbols-j)/float64(j+1)) + math.Log(s) - math.Log1p(-s)
	}
	return total
}

func logChoose(n, k int) float64 {
	lg := func(x int) float64 {
		v, _ := math.Lgamma(float64(x + 1))
		return v
	}
	return lg(n) - lg(k) - lg(n-k)
}
