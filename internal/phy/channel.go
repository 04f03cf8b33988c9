package phy

import "math"

// NoEvent is the NextEvent value of a channel that will never fire (BER 0).
const NoEvent = math.MaxInt

// Channel is a stochastic bit-error process applied to flit images in
// transit. Errors are injected as independent events at rate BER, using
// geometric gap sampling so that low-BER channels cost O(errors), not
// O(bits). Each error event optionally extends into a burst via the DFE
// propagation model: after a symbol decision error, each subsequent bit is
// also corrupted with probability BurstProb, mimicking decision feedback
// equalizer error propagation at the PAM4 physical layer (Section 2.2).
// Bursts are truncated at the unit (flit) boundary — the DFE resets with
// the next flit's training, so propagation never crosses images.
//
// The channel maintains a pre-drawn error-event schedule: the gap to the
// next error is sampled once and carried across unit boundaries as a
// residual, so the bit-error process is exact rather than truncated and
// re-drawn per flit. The schedule is what enables the error-event fast
// path: NextEvent tells a caller whether the next unit will be touched at
// all, and clean units advance the schedule in O(1) with zero RNG draws
// (Advance) — the corruption outcome is identical whether a unit is
// scanned byte-level or skipped.
//
// A Channel is not safe for concurrent use; give each simulated link its
// own (use RNG.Split for reproducible derivation).
type Channel struct {
	// BER is the independent bit error rate (e.g. 1e-6 for CXL 3.0).
	BER float64
	// BurstProb is the probability that an error event corrupts the next
	// bit as well (geometric burst lengths with mean 1/(1-BurstProb)).
	// Zero gives a pure iid channel.
	BurstProb float64

	rng *RNG

	// next is the schedule: the number of bits that will pass through the
	// channel before the next error event (NoEvent if none ever will).
	// Valid only once primed.
	next   int
	primed bool

	// Stats accumulated across Corrupt calls.
	BitsSeen     uint64
	BitsFlipped  uint64
	ErrorEvents  uint64 // independent error events (bursts count once)
	UnitsTouched uint64 // buffers with at least one flipped bit
}

// NewChannel returns a channel with the given error parameters and RNG.
func NewChannel(ber, burstProb float64, rng *RNG) *Channel {
	return &Channel{BER: ber, BurstProb: burstProb, rng: rng}
}

// prime draws the initial error gap lazily, so construction stays free of
// RNG consumption.
func (ch *Channel) prime() {
	if !ch.primed {
		ch.primed = true
		ch.next = ch.rng.Geometric(ch.BER)
	}
}

// NextEvent returns the number of clean bits that will pass through the
// channel before the next scheduled error event, or NoEvent if no error
// will ever fire. Consulting the schedule draws at most the one geometric
// gap Corrupt would have drawn anyway, so it never perturbs determinism.
func (ch *Channel) NextEvent() int {
	if ch.BER <= 0 {
		return NoEvent
	}
	ch.prime()
	return ch.next
}

// Advance accounts a clean span of bits without inspecting an image,
// consuming the schedule in O(1) with no RNG draws. The caller must have
// checked NextEvent() >= bits; advancing across a scheduled error event
// would silently drop it, so that is a panic.
func (ch *Channel) Advance(bits int) {
	ch.BitsSeen += uint64(bits)
	if ch.BER <= 0 {
		return
	}
	ch.prime()
	if ch.next < bits {
		panic("phy: Advance across a scheduled error event")
	}
	if ch.next != NoEvent {
		ch.next -= bits
	}
}

// SetBER changes the channel's bit error rate mid-stream — the primitive
// behind scripted fault campaigns (lane degrade, transient BER storms).
// The geometric error process is memoryless, so the statistically correct
// rate change redraws the pending gap at the new rate: exactly one RNG
// draw from this channel's own stream, at the moment of the change. A
// channel that has not yet primed simply primes at the new rate on first
// use. Callers on the fast==byte-level differential contract must invoke
// SetBER at identical points of the consumption stream in both runs
// (scheduling it as a simulation event does exactly that).
func (ch *Channel) SetBER(ber float64) {
	ch.BER = ber
	if ch.primed {
		ch.next = ch.rng.Geometric(ber)
	}
}

// Corrupt injects bit errors into buf in place per the schedule and
// returns the number of bits flipped. Clean buffers (no event scheduled
// within) cost O(1).
func (ch *Channel) Corrupt(buf []byte) int {
	return ch.strike(buf, len(buf)*8)
}

// Traverse advances a bits-wide unit through the error schedule without an
// image, returning the number of bits that would have been flipped. It
// consumes exactly the RNG draws Corrupt would, so schedule-only Monte
// Carlo (flit error rate estimation) stays bit-compatible with full
// image-level simulation.
func (ch *Channel) Traverse(bits int) int {
	return ch.strike(nil, bits)
}

// strike runs one unit of bits through the channel, flipping bits in buf
// when non-nil.
func (ch *Channel) strike(buf []byte, bits int) int {
	ch.BitsSeen += uint64(bits)
	if ch.BER <= 0 {
		return 0
	}
	ch.prime()
	if ch.next >= bits {
		if ch.next != NoEvent {
			ch.next -= bits
		}
		return 0
	}
	flipped := 0
	pos := ch.next
	for pos < bits {
		ch.ErrorEvents++
		// Flip the seed bit, then extend the burst while the DFE model
		// keeps propagating (never past the unit boundary).
		flip(buf, pos)
		flipped++
		ch.BitsFlipped++
		for ch.BurstProb > 0 && pos+1 < bits && ch.rng.Float64() < ch.BurstProb {
			pos++
			flip(buf, pos)
			flipped++
			ch.BitsFlipped++
		}
		gap := ch.rng.Geometric(ch.BER)
		if gap >= NoEvent-pos-1 { // avoid overflow on MaxInt gaps
			pos = NoEvent
			break
		}
		pos += 1 + gap
	}
	// Carry the residual gap across the unit boundary so inter-unit error
	// spacing follows the exact geometric process.
	if pos == NoEvent {
		ch.next = NoEvent
	} else {
		ch.next = pos - bits
	}
	ch.UnitsTouched++
	return flipped
}

func flip(buf []byte, pos int) {
	if buf != nil {
		buf[pos/8] ^= 1 << (7 - pos%8)
	}
}
