// Package reliability implements the paper's analytic reliability model
// (Section 7.1): flit error rates, undetected-failure rates, and FIT values
// for CXL and RXL across direct and multi-level switched topologies.
//
// The paper's evaluation is analytic because the interesting events are far
// too rare to sample directly — an undetected data failure occurs roughly
// once per 1.6e24 flits. This package reproduces every equation (Eq. 1–10)
// as a closed form, and the companion montecarlo.go provides *staged*
// estimators that validate each conditional stage of the model at feasible
// rates (flit error rates at accelerated BER, FEC detection fractions by
// burst length) so the composition can be trusted without ever sampling a
// 1e-24 event.
//
// Terminology follows the paper:
//
//	FER      flit error rate: P(flit has ≥1 bit error) — Eq. 1
//	FER_UC   uncorrectable flit error rate after FEC — Eq. 2 (PCIe 6.0 bound)
//	FER_UD   undetected flit error rate after CRC — Eq. 4 / Eq. 9
//	FIT      failures in time: expected failures per 1e9 device-hours — Eq. 5
package reliability

import (
	"fmt"
	"math"

	"repro/internal/flit"
)

// Paper-fixed constants (Section 7.1).
const (
	// DefaultBER is CXL 3.0's relaxed bit error rate tolerance (1e-6).
	DefaultBER = 1e-6

	// FlitBits is the size of a 256B flit in bits.
	FlitBits = flit.Bits

	// DefaultFERUC is the uncorrectable flit error rate after FEC. The
	// PCIe 6.0 standard sets this upper bound (Eq. 2).
	DefaultFERUC = 3.0e-5

	// DefaultPCoalescing is the ACK coalescing level used throughout the
	// paper's switched analysis: one in ten flits carries an AckNum
	// (Section 7.1.2).
	DefaultPCoalescing = 0.1

	// DefaultFlitsPerSecond is the flit rate of a full-speed ×16 CXL 3.0
	// link: 256B flits every 2 ns (Section 7.1.1).
	DefaultFlitsPerSecond = 500e6

	// CRCEscape is the undetected-error probability of the 64-bit CRC for
	// errors beyond its guaranteed detection classes (Section 4.1).
	CRCEscape = 1.0 / (1 << 63) / 2 // 2^-64

	// FITHoursScale converts a per-hour failure rate to FIT (failures per
	// one billion hours).
	FITHoursScale = 1e9

	// SecondsPerHour is used when converting per-flit rates to per-hour.
	SecondsPerHour = 3600
)

// Params collects the model inputs. The zero value is not useful; start
// from DefaultParams and override fields as needed.
type Params struct {
	// BER is the physical-layer bit error rate.
	BER float64
	// FlitBits is the flit size in bits (2048 for 256B flits).
	FlitBits int
	// FERUC is the uncorrectable flit error rate after FEC.
	FERUC float64
	// PCoalescing is the fraction of flits carrying an AckNum instead of
	// their own sequence number (CXL with piggybacking).
	PCoalescing float64
	// FlitsPerSecond is the link's flit rate.
	FlitsPerSecond float64
	// CRCEscape is the CRC's undetected-error probability for errors
	// beyond its guaranteed classes.
	CRCEscape float64
}

// DefaultParams returns the parameter set used for every headline number in
// Section 7.1.
func DefaultParams() Params {
	return Params{
		BER:            DefaultBER,
		FlitBits:       FlitBits,
		FERUC:          DefaultFERUC,
		PCoalescing:    DefaultPCoalescing,
		FlitsPerSecond: DefaultFlitsPerSecond,
		CRCEscape:      CRCEscape,
	}
}

// Validate reports whether the parameters are physically meaningful.
func (p Params) Validate() error {
	switch {
	case p.BER < 0 || p.BER > 1:
		return fmt.Errorf("reliability: BER %g out of [0,1]", p.BER)
	case p.FlitBits <= 0:
		return fmt.Errorf("reliability: FlitBits %d must be positive", p.FlitBits)
	case p.FERUC < 0 || p.FERUC > 1:
		return fmt.Errorf("reliability: FERUC %g out of [0,1]", p.FERUC)
	case p.PCoalescing < 0 || p.PCoalescing > 1:
		return fmt.Errorf("reliability: PCoalescing %g out of [0,1]", p.PCoalescing)
	case p.FlitsPerSecond <= 0:
		return fmt.Errorf("reliability: FlitsPerSecond %g must be positive", p.FlitsPerSecond)
	case p.CRCEscape < 0 || p.CRCEscape > 1:
		return fmt.Errorf("reliability: CRCEscape %g out of [0,1]", p.CRCEscape)
	}
	return nil
}

// FER returns the flit error rate for independent bit errors (Eq. 1):
//
//	FER = 1 - (1-BER)^flit_size
//
// With BER=1e-6 and 2048-bit flits this is ≈ 2.0e-3: one flit in five
// hundred arrives with at least one bit error.
func (p Params) FER() float64 {
	// expm1/log1p keep precision for the tiny BERs this model sweeps.
	return -math.Expm1(float64(p.FlitBits) * math.Log1p(-p.BER))
}

// PCorrect returns the fraction of erroneous flits the FEC corrects
// (Eq. 3):
//
//	p_correct = 1 - FER_UC / FER
//
// With the default parameters this exceeds 98.5%.
func (p Params) PCorrect() float64 {
	fer := p.FER()
	if fer == 0 {
		return 1
	}
	return 1 - p.FERUC/fer
}

// FERUndetectedDirect returns the undetected flit error rate for a direct
// connection (Eq. 4): uncorrectable flits that also slip past the 64-bit
// CRC.
//
//	FER_UD = FER_UC × 2^-64 ≈ 1.6e-24
//
// This is an upper bound: burst errors of 64 bits or fewer are detected
// with certainty.
func (p Params) FERUndetectedDirect() float64 {
	return p.FERUC * p.CRCEscape
}

// FIT converts a per-flit failure rate to Failures In Time — expected
// failures per one billion device-hours (Eq. 5):
//
//	FIT = rate × flits/s × 3600 × 1e9
func (p Params) FIT(perFlitRate float64) float64 {
	return perFlitRate * p.FlitsPerSecond * SecondsPerHour * FITHoursScale
}

// FITDirect returns the device FIT for a direct CXL (or RXL) connection
// (Eq. 5): ≈ 2.9e-3 with default parameters — far below the few-hundred
// FIT budget of server-grade devices.
func (p Params) FITDirect() float64 {
	return p.FIT(p.FERUndetectedDirect())
}

// FERDrop returns the rate of flits silently dropped by the switches on a
// path with `levels` switching levels (Eq. 6 generalized). Each switch
// discards the flits found uncorrectable on its ingress link, so drops
// accumulate linearly with the number of levels:
//
//	FER_drop = levels × FER_UC
func (p Params) FERDrop(levels int) float64 {
	if levels < 0 {
		panic("reliability: negative switching levels")
	}
	return float64(levels) * p.FERUC
}

// FEROrder returns the ordering-failure rate of baseline CXL in a switched
// topology (Eq. 7 generalized to multi-level): a dropped flit becomes an
// undetected ordering violation when the next flit carries an AckNum
// instead of its own sequence number.
//
//	FER_order = FER_drop × p_coalescing
//
// With one switch and p_coalescing = 0.1 this is 3.0e-6 — twenty orders of
// magnitude above the undetected-data rate.
func (p Params) FEROrder(levels int) float64 {
	return p.FERDrop(levels) * p.PCoalescing
}

// FITCXL returns the device FIT of baseline CXL at the given number of
// switching levels. Level 0 is the direct connection (Eq. 5); with one or
// more switches the ordering-failure mode dominates (Eq. 8):
//
//	FIT = FER_order × flits/s × 3600 × 1e9 ≈ 5.4e15 at one level
func (p Params) FITCXL(levels int) float64 {
	if levels == 0 {
		return p.FITDirect()
	}
	return p.FIT(p.FEROrder(levels))
}

// FERUndetectedRXL returns the undetected flit error rate of RXL at the
// given number of switching levels (Eq. 9 generalized). ISN detects every
// drop, so ordering failures are eliminated; the only residual failure is
// corrupted data escaping the end-to-end CRC. Each of the levels+1 links
// contributes uncorrectable errors at rate FER_UC, and retried flits face
// the same exposure once more — hence the (1 + FER_UC) factor of Eq. 9:
//
//	FER_UD = (levels+1) × FER_UC × (1 + FER_UC) × 2^-64
//
// That is ≈ 1.6e-24 per link and ≈ 3.3e-24 at one level, which has two
// links. (Eq. 9 prints the leading FER_UC factor inside the parenthesis;
// the paper's numeric value 1.6e-24, the one-link value, confirms the
// intended form.)
func (p Params) FERUndetectedRXL(levels int) float64 {
	if levels < 0 {
		panic("reliability: negative switching levels")
	}
	return float64(levels+1) * p.FERUC * (1 + p.FERUC) * p.CRCEscape
}

// FITRXL returns the device FIT of RXL at the given number of switching
// levels (Eq. 10): (levels+1) × (1 + FER_UC) × FITDirect, ≈ 5.9e-3 at one
// level. The paper prints 2.9e-3, its one-link (Eq. 5) value; here each
// of the levels+1 links counts. The rise is only linear in the number of
// links — "nearly unchanged" on the paper's log scale.
func (p Params) FITRXL(levels int) float64 {
	return p.FIT(p.FERUndetectedRXL(levels))
}

// Improvement returns the FIT ratio CXL/RXL at the given level — the
// paper's ">1e18 times lower" claim at one switching level.
func (p Params) Improvement(levels int) float64 {
	r := p.FITRXL(levels)
	if r == 0 {
		return math.Inf(1)
	}
	return p.FITCXL(levels) / r
}

// Point is one x-position of the Fig. 8 comparison.
type Point struct {
	// Levels is the number of switching levels (0 = direct connection).
	Levels int
	// FITCXL and FITRXL are the device FIT values of the two protocols.
	FITCXL float64
	FITRXL float64
}

// Fig8 returns the CXL-vs-RXL FIT series of Fig. 8 for switching levels
// 0..maxLevels inclusive.
func (p Params) Fig8(maxLevels int) []Point {
	if maxLevels < 0 {
		panic("reliability: negative maxLevels")
	}
	pts := make([]Point, maxLevels+1)
	for l := 0; l <= maxLevels; l++ {
		pts[l] = Point{Levels: l, FITCXL: p.FITCXL(l), FITRXL: p.FITRXL(l)}
	}
	return pts
}
