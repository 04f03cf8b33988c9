package phy

import (
	"context"
	"math"
)

// NoEvent is the NextEvent value of a schedule that will never fire (BER 0).
const NoEvent = math.MaxInt

// SharedSchedule is the simulator's one bit-error model: a pre-drawn
// error-event schedule consumed by every hop crossing of a
// source→destination path. A flit traversing H hops consumes H units
// (one per crossing, UnitBits each) of the same error-event stream, so
// the per-bit error rate on every crossing is exactly BER; a lone link is
// a one-hop path.
//
// Errors are independent events at rate BER, drawn by geometric gap
// sampling so that low-BER schedules cost O(errors), not O(bits). Each
// error event optionally extends into a burst via the DFE propagation
// model: after a symbol decision error, each subsequent bit is also
// corrupted with probability BurstProb, mimicking decision feedback
// equalizer error propagation at the PAM4 physical layer (Section 2.2).
// Bursts are truncated at the unit (flit) boundary — the DFE resets with
// the next flit's training, so propagation never crosses images. The gap
// to the next error is drawn once and carried across unit boundaries as a
// residual, so the bit-error process is exact rather than truncated and
// re-drawn per flit.
//
// The pre-drawn gap is what enables the fast path: at the injection point
// one schedule consultation decides the flit's *entire* traversal — Begin
// reports whether the next hops×UnitBits of the stream are error-free,
// and if so consumes them all up front with zero RNG draws. The flit then
// carries a path pass and every downstream hop skips channel work
// entirely. Dirty traversals (an event inside the window) fall back to
// unit-by-unit consumption, so corruption lands on the exact hop the
// schedule assigns it and per-hop FEC termination sees it there; the
// corruption outcome is identical whether a unit is scanned byte-level
// (Corrupt) or only counted (Traverse).
//
// The consumption policy — grant whole traversals when clean, consume
// unit-by-unit otherwise, always in engine dispatch order — is part of
// the channel model itself, applied identically by the fast path and the
// byte-level reference. That is what keeps the two bit-identical under
// pipelined traffic: a grant front-loads stream consumption relative to
// per-hop crossings, so both paths must front-load it the same way.
//
// A SharedSchedule is not safe for concurrent use; give each simulated
// path its own (derive RNGs with RNG.Split).
type SharedSchedule struct {
	// BER is the independent bit error rate (e.g. 1e-6 for CXL 3.0).
	BER float64
	// BurstProb is the probability that an error event corrupts the next
	// bit as well (geometric burst lengths with mean 1/(1-BurstProb)).
	// Zero gives a pure iid channel.
	BurstProb float64
	// UnitBits is the width of one hop crossing (one flit image).
	UnitBits int

	rng *RNG

	// next is the number of bits that will pass through the schedule
	// before the next error event (NoEvent if none ever will). Valid only
	// once primed.
	next   int
	primed bool

	// Stats accumulated across crossings.
	BitsSeen     uint64
	BitsFlipped  uint64
	ErrorEvents  uint64 // independent error events (bursts count once)
	UnitsTouched uint64 // crossings with at least one flipped bit
}

// NewSharedSchedule returns a path schedule over unitBits-wide crossings.
func NewSharedSchedule(ber, burstProb float64, rng *RNG, unitBits int) *SharedSchedule {
	if unitBits <= 0 {
		panic("phy: non-positive unit width")
	}
	return &SharedSchedule{BER: ber, BurstProb: burstProb, rng: rng, UnitBits: unitBits}
}

// NextEvent returns the number of clean bits that will pass through the
// schedule before the next error event, or NoEvent if no error will ever
// fire. The initial gap is drawn lazily here, so construction stays free
// of RNG consumption; consulting the schedule draws at most the one gap a
// crossing would have drawn anyway, so it never perturbs determinism.
func (s *SharedSchedule) NextEvent() int {
	if s.BER <= 0 {
		return NoEvent
	}
	if !s.primed {
		s.primed = true
		s.next = s.rng.Geometric(s.BER)
	}
	return s.next
}

// SetBER changes the bit error rate mid-stream — the primitive behind
// scripted fault campaigns (lane degrade, transient BER storms). The
// geometric error process is memoryless, so the statistically correct
// rate change redraws the pending gap at the new rate: exactly one RNG
// draw from this schedule's own stream, at the moment of the change. A
// schedule that has not yet primed simply primes at the new rate on
// first use. Callers on the fast==byte-level differential contract must
// invoke SetBER at identical points of the consumption stream in both
// runs (scheduling it as a simulation event does exactly that).
func (s *SharedSchedule) SetBER(ber float64) {
	s.BER = ber
	if s.primed {
		s.next = s.rng.Geometric(ber)
	}
}

// advance accounts a clean span of bits without inspecting an image,
// consuming the schedule in O(1) with no RNG draws. Advancing across a
// scheduled error event would silently drop it, so that is a panic.
func (s *SharedSchedule) advance(bits int) {
	s.BitsSeen += uint64(bits)
	if s.BER <= 0 {
		return
	}
	if s.NextEvent() < bits {
		panic("phy: advance across a scheduled error event")
	}
	if s.next != NoEvent {
		s.next -= bits
	}
}

// Begin opens a traversal of hops crossings. If the schedule proves the
// whole window clean it consumes all hops×UnitBits in one O(1) advance
// and returns true — the caller may skip every per-hop channel operation
// of this traversal. Otherwise nothing is consumed and the caller must
// put each crossing through CrossClean/Advance/Corrupt individually.
func (s *SharedSchedule) Begin(hops int) bool {
	if hops <= 0 {
		panic("phy: non-positive hop count")
	}
	span := hops * s.UnitBits
	if s.NextEvent() < span {
		return false
	}
	s.advance(span)
	return true
}

// GrantSpan consumes up to max whole clean traversals of hops crossings
// each in one O(1) advance, returning how many were granted: the bulk
// form of Begin, and the step Walk takes over every clean span.
func (s *SharedSchedule) GrantSpan(hops, max int) int {
	if hops <= 0 {
		panic("phy: non-positive hop count")
	}
	span := hops * s.UnitBits
	n := s.NextEvent() / span
	if n > max {
		n = max
	}
	if n > 0 {
		s.advance(n * span)
	}
	return n
}

// CrossClean reports whether the next single crossing is free of error
// events. It never consumes the schedule.
func (s *SharedSchedule) CrossClean() bool { return s.NextEvent() >= s.UnitBits }

// walkCheckMask sets Walk's context-poll period: every 4096 steps, cheap
// against even the lightest per-step work while keeping cancellation
// latency in the microseconds.
const walkCheckMask = 4095

// Walk drives units traversals of hops crossings each through the
// schedule and returns how many were clean. It is the one clean-span
// loop of schedule-only Monte Carlo: each run of clean traversals is
// consumed in one GrantSpan step with zero RNG draws, so at production
// BERs the loop runs per error event rather than per unit per hop, and
// onStruck runs once per traversal the schedule strikes. onStruck must
// consume exactly that traversal — hops crossings, through Traverse,
// Corrupt or a one-hop Walk over them — so the stream stays the one a
// crossing-by-crossing walk consumes.
//
// ctx is polled every 4096 steps (a step is one grant and the struck
// traversal it stops at); on cancellation the walk abandons the remaining units and
// returns the clean count so far.
func (s *SharedSchedule) Walk(ctx context.Context, hops, units int, onStruck func()) (clean int) {
	for i, steps := 0, 0; i < units; steps++ {
		if steps&walkCheckMask == 0 && ctx.Err() != nil {
			break
		}
		n := s.GrantSpan(hops, units-i)
		clean += n
		i += n
		// A grant short of the cap stops at the event: the next
		// traversal is struck.
		if i < units {
			onStruck()
			i++
		}
	}
	return clean
}

// Advance consumes one clean crossing in O(1) with no RNG draws. The
// caller must have checked CrossClean; advancing across a scheduled error
// event panics.
func (s *SharedSchedule) Advance() { s.advance(s.UnitBits) }

// Corrupt consumes one crossing, flipping scheduled error bits in buf in
// place, and returns the number of bits flipped. buf must be UnitBits
// wide. A clean crossing costs O(1).
func (s *SharedSchedule) Corrupt(buf []byte) int {
	if len(buf)*8 != s.UnitBits {
		panic("phy: buffer width != schedule unit")
	}
	return s.strike(buf)
}

// Traverse consumes one crossing without an image, returning the number
// of bits that would have been flipped. It draws exactly the RNG stream
// Corrupt would, so schedule-only Monte Carlo stays bit-compatible with
// image-level simulation.
func (s *SharedSchedule) Traverse() int { return s.strike(nil) }

// strike runs one crossing through the schedule, flipping bits in buf
// when non-nil.
func (s *SharedSchedule) strike(buf []byte) int {
	bits := s.UnitBits
	s.BitsSeen += uint64(bits)
	if s.BER <= 0 {
		return 0
	}
	if s.NextEvent() >= bits {
		if s.next != NoEvent {
			s.next -= bits
		}
		return 0
	}
	flipped := 0
	pos := s.next
	for pos < bits {
		s.ErrorEvents++
		// Flip the seed bit, then extend the burst while the DFE model
		// keeps propagating (never past the unit boundary).
		flip(buf, pos)
		flipped++
		for s.BurstProb > 0 && pos+1 < bits && s.rng.Float64() < s.BurstProb {
			pos++
			flip(buf, pos)
			flipped++
		}
		gap := s.rng.Geometric(s.BER)
		if gap >= NoEvent-pos-1 { // avoid overflow on MaxInt gaps
			pos = NoEvent
			break
		}
		pos += 1 + gap
	}
	s.BitsFlipped += uint64(flipped)
	// Carry the residual gap across the unit boundary so inter-unit error
	// spacing follows the exact geometric process.
	if pos == NoEvent {
		s.next = NoEvent
	} else {
		s.next = pos - bits
	}
	s.UnitsTouched++
	return flipped
}

func flip(buf []byte, pos int) {
	if buf != nil {
		buf[pos/8] ^= 1 << (7 - pos%8)
	}
}
