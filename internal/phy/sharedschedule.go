package phy

import "context"

// SharedSchedule is one pre-drawn error-event schedule consumed by every
// hop of a source→destination path. Where a per-wire Channel models each
// hop as an independent bit-error process, a SharedSchedule concatenates
// the path's hop crossings into a single bit stream: a flit traversing H
// hops consumes H units (one per crossing) of the same geometric
// error-event process, so the per-bit error rate on every crossing is
// still exactly BER.
//
// Sharing the stream is what enables the mesh-wide fast path: at the
// injection point one schedule consultation decides the flit's *entire*
// traversal — Begin reports whether the next hops×UnitBits of the stream
// are error-free, and if so consumes them all up front. The flit then
// carries a path pass and every downstream hop skips channel work
// entirely. Dirty traversals (an event inside the window) fall back to
// unit-by-unit consumption, so corruption lands on the exact hop the
// schedule assigns it and per-hop FEC termination sees it there.
//
// The consumption policy — grant whole traversals when clean, consume
// unit-by-unit otherwise, always in engine dispatch order — is part of
// the channel model itself, applied identically by the fast path and the
// byte-level reference. That is what keeps the two bit-identical under
// pipelined traffic: a grant front-loads stream consumption relative to
// per-hop crossings, so both paths must front-load it the same way.
//
// A SharedSchedule is not safe for concurrent use; like Channel, give
// each simulated path its own (derive RNGs with RNG.Split).
type SharedSchedule struct {
	ch *Channel
	// UnitBits is the width of one hop crossing (one flit image).
	UnitBits int
}

// NewSharedSchedule returns a path schedule over unitBits-wide crossings.
func NewSharedSchedule(ber, burstProb float64, rng *RNG, unitBits int) *SharedSchedule {
	if unitBits <= 0 {
		panic("phy: non-positive unit width")
	}
	return &SharedSchedule{ch: NewChannel(ber, burstProb, rng), UnitBits: unitBits}
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
	if s.ch.NextEvent() < span {
		return false
	}
	s.ch.Advance(span)
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
	n := s.ch.NextEvent() / span
	if n > max {
		n = max
	}
	if n > 0 {
		s.ch.Advance(n * span)
	}
	return n
}

// CrossClean reports whether the next single crossing is free of error
// events. It never consumes the schedule.
func (s *SharedSchedule) CrossClean() bool { return s.ch.NextEvent() >= s.UnitBits }

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
// caller must have checked CrossClean.
func (s *SharedSchedule) Advance() { s.ch.Advance(s.UnitBits) }

// Corrupt consumes one crossing, flipping scheduled error bits in buf in
// place, and returns the number of bits flipped. buf must be UnitBits
// wide.
func (s *SharedSchedule) Corrupt(buf []byte) int {
	if len(buf)*8 != s.UnitBits {
		panic("phy: buffer width != schedule unit")
	}
	return s.ch.Corrupt(buf)
}

// Traverse consumes one crossing without an image, returning the number
// of bits that would have been flipped. It draws exactly the RNG stream
// Corrupt would, so schedule-only Monte Carlo stays bit-compatible with
// image-level simulation.
func (s *SharedSchedule) Traverse() int { return s.ch.Traverse(s.UnitBits) }

// Channel exposes the underlying error process for statistics
// (BitsSeen/BitsFlipped/ErrorEvents/UnitsTouched) and estimator reuse.
func (s *SharedSchedule) Channel() *Channel { return s.ch }
