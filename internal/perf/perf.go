// Package perf implements the paper's bandwidth-loss analysis (Section
// 7.2): the cost of go-back-N retries on direct and switched paths
// (Eq. 11, 12, 14) and the reverse-bandwidth cost of standalone ACK flits
// when piggybacking is disabled (Eq. 13).
//
// The model is a simple occupancy argument: a flit that transmits cleanly
// occupies the channel for FlitTime; a flit that triggers a go-back-N retry
// occupies it for FlitTime + RetryLatency, because the retry window is
// filled with replayed flits that carry no new payload. Bandwidth loss is
// one minus the ratio of useful time to expected occupancy.
//
// Alongside the closed forms, Measured* helpers extract the same quantities
// from live simulation statistics so every equation can be cross-checked
// against the event-driven link model.
package perf

import (
	"fmt"
	"math"

	"repro/internal/link"
	"repro/internal/sim"
)

// Params holds the Section 7.2 timing and error inputs.
type Params struct {
	// FlitTime is the serialization time of one flit (2 ns on a ×16
	// CXL 3.0 link).
	FlitTime sim.Time
	// RetryLatency is the go-back-N turnaround: the time the channel is
	// occupied by replayed flits per retry event (100 ns, Section 7.2).
	RetryLatency sim.Time
	// FERUC is the per-link uncorrectable flit error rate (3e-5).
	FERUC float64
	// PCoalescing is the ACK coalescing level (fraction of forward flits
	// answered by one standalone ACK when piggybacking is off).
	PCoalescing float64
}

// DefaultParams returns the Section 7.2 inputs: 2 ns flits, 100 ns
// go-back-N latency, FER_UC = 3e-5, p_coalescing = 0.1.
func DefaultParams() Params {
	return Params{
		FlitTime:     2 * sim.Nanosecond,
		RetryLatency: 100 * sim.Nanosecond,
		FERUC:        3.0e-5,
		PCoalescing:  0.1,
	}
}

// Validate reports whether the parameters are meaningful.
func (p Params) Validate() error {
	switch {
	case p.FlitTime <= 0:
		return fmt.Errorf("perf: FlitTime %d must be positive", p.FlitTime)
	case p.RetryLatency < 0:
		return fmt.Errorf("perf: RetryLatency %d must be non-negative", p.RetryLatency)
	case p.FERUC < 0 || p.FERUC > 1:
		return fmt.Errorf("perf: FERUC %g out of [0,1]", p.FERUC)
	case p.PCoalescing < 0 || p.PCoalescing > 1:
		return fmt.Errorf("perf: PCoalescing %g out of [0,1]", p.PCoalescing)
	}
	return nil
}

// lossAtRetryRate evaluates the occupancy argument of Eq. 11 at an
// arbitrary per-flit retry rate:
//
//	BW_loss = 1 - t_flit / ((1-r)·t_flit + r·(t_flit + t_retry))
func (p Params) lossAtRetryRate(r float64) float64 {
	if r < 0 || r > 1 {
		panic("perf: retry rate out of [0,1]")
	}
	tf := float64(p.FlitTime)
	tr := float64(p.FlitTime + p.RetryLatency)
	return 1 - tf/((1-r)*tf+r*tr)
}

// BWLossDirect returns the retry bandwidth loss of a direct connection
// (Eq. 11): flits retry at rate FER_UC, giving ≈0.15% with the default
// parameters.
func (p Params) BWLossDirect() float64 {
	return p.lossAtRetryRate(p.FERUC)
}

// BWLossSwitched returns the retry bandwidth loss across a path with the
// given number of switching levels, generalizing Eq. 12: each of the
// levels+1 links contributes retries at rate FER_UC. At one level this is
// 2×FER_UC and ≈0.30%.
//
// Both CXL-with-piggybacking and RXL share this formula (Eq. 12 and Eq. 14
// are identical expressions); the difference is that CXL's number buys
// incomplete protection while RXL's buys full drop detection.
func (p Params) BWLossSwitched(levels int) float64 {
	if levels < 0 {
		panic("perf: negative switching levels")
	}
	return p.lossAtRetryRate(math.Min(1, float64(levels+1)*p.FERUC))
}

// BWLossNoPiggyback returns the reverse-direction bandwidth consumed by
// standalone ACK flits when piggybacking is disabled (Eq. 13):
//
//	BW_loss = p_coalescing
//
// Without coalescing (p=1) the reverse link is fully consumed by ACKs.
func (p Params) BWLossNoPiggyback() float64 {
	return p.PCoalescing
}

// BWLossRXL returns RXL's bandwidth loss at the given switching level
// (Eq. 14). RXL keeps ACK piggybacking — the ISN-protected CRC covers the
// piggybacked AckNum — so its loss equals the Eq. 12 retry-occupancy form.
func (p Params) BWLossRXL(levels int) float64 {
	return p.BWLossSwitched(levels)
}

// Row is one line of the Section 7.2 comparison table.
type Row struct {
	Scheme  string  // configuration name
	Levels  int     // switching levels
	BWLoss  float64 // fractional bandwidth loss
	Ordered bool    // whether the scheme detects all ordering violations
}

// Table returns the Section 7.2 comparison at one switching level: CXL
// direct, CXL switched with piggybacking, CXL switched without
// piggybacking, and RXL switched.
func (p Params) Table() []Row {
	return []Row{
		{Scheme: "CXL direct", Levels: 0, BWLoss: p.BWLossDirect(), Ordered: true},
		{Scheme: "CXL switched (piggyback)", Levels: 1, BWLoss: p.BWLossSwitched(1), Ordered: false},
		{Scheme: "CXL switched (no piggyback)", Levels: 1, BWLoss: p.BWLossNoPiggyback(), Ordered: true},
		{Scheme: "RXL switched", Levels: 1, BWLoss: p.BWLossRXL(1), Ordered: true},
	}
}

// --- Simulation cross-checks ---------------------------------------------

// MeasuredGoodput summarizes useful versus total link occupancy from live
// link statistics: the simulation-side counterpart of Eq. 11/12/14.
type MeasuredGoodput struct {
	DataFlits     uint64 // first transmissions (useful payload)
	TotalFlits    uint64 // everything on the wire incl. replays and control
	Retransmits   uint64
	ControlFlits  uint64
	BWLoss        float64 // 1 - DataFlits/TotalFlits
	AckOverhead   float64 // standalone ACKs / data flits (Eq. 13 measured)
	RetryOverhead float64 // retransmissions / data flits
}

// MeasureGoodput derives goodput and overhead fractions from a transmitter
// peer's statistics after a simulation run.
func MeasureGoodput(st link.Stats) MeasuredGoodput {
	m := MeasuredGoodput{
		DataFlits:    st.DataFlitsSent,
		TotalFlits:   st.FlitsSent,
		Retransmits:  st.Retransmissions,
		ControlFlits: st.AckFlitsSent + st.NakFlitsSent,
	}
	if m.TotalFlits > 0 {
		m.BWLoss = 1 - float64(m.DataFlits)/float64(m.TotalFlits)
	}
	if m.DataFlits > 0 {
		m.AckOverhead = float64(st.AckFlitsSent) / float64(m.DataFlits)
		m.RetryOverhead = float64(m.Retransmits) / float64(m.DataFlits)
	}
	return m
}

// EffectiveBandwidth converts a goodput fraction into bytes/s given the
// flit payload size and flit time — a convenience for reports.
func (p Params) EffectiveBandwidth(goodput float64, payloadBytes int) float64 {
	if goodput < 0 || goodput > 1 {
		panic("perf: goodput out of [0,1]")
	}
	flitsPerSec := float64(sim.Second) / float64(p.FlitTime)
	return goodput * flitsPerSec * float64(payloadBytes)
}
