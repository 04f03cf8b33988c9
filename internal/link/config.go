// Package link implements the flit link-layer protocol engines compared by
// the paper:
//
//   - ProtocolCXL: baseline CXL 3.0 semantics. The 10-bit FSN header field
//     is multiplexed between the flit's own sequence number (ReplayCmd=SEQ)
//     and a piggybacked acknowledgment (ReplayCmd=ACK). Flits that carry an
//     AckNum cannot be sequence-checked by the receiver — the blind spot
//     that turns silent switch drops into ordering failures (Section 4).
//
//   - ProtocolCXLNoPiggyback: every data flit carries its own explicit FSN;
//     acknowledgments travel as standalone flits, consuming reverse
//     bandwidth proportional to the coalescing level (Section 7.2.2,
//     option 2).
//
//   - ProtocolRXL: the paper's proposal. The FSN field carries only
//     AckNums (or zero); the sequence number is folded into the 64-bit CRC
//     (ISN), which is checked end-to-end at the destination with the local
//     expected sequence number. Every drop, reorder or corruption —
//     including corruption inside switches — surfaces as a CRC mismatch
//     (Sections 5–6).
//
// All three engines share one go-back-N retry machine (replay ring, NAK
// with last-good sequence, ACK coalescing, retransmission timer), so the
// protocols differ only in how sequence integrity is conveyed — exactly the
// comparison the paper makes.
package link

import (
	"fmt"

	"repro/internal/sim"
)

// Protocol selects the sequence-integrity scheme.
type Protocol int

const (
	// ProtocolCXL is baseline CXL 3.0 with ACK piggybacking on the
	// multiplexed FSN field.
	ProtocolCXL Protocol = iota
	// ProtocolCXLNoPiggyback always sends explicit sequence numbers and
	// uses standalone ACK flits.
	ProtocolCXLNoPiggyback
	// ProtocolRXL embeds the sequence number in the CRC (ISN).
	ProtocolRXL
)

// String implements fmt.Stringer.
func (p Protocol) String() string {
	switch p {
	case ProtocolCXL:
		return "CXL"
	case ProtocolCXLNoPiggyback:
		return "CXL-noPB"
	case ProtocolRXL:
		return "RXL"
	default:
		return "Protocol(?)"
	}
}

// Config parameterizes a link-layer peer.
type Config struct {
	// Protocol selects CXL, CXL-without-piggybacking, or RXL.
	Protocol Protocol

	// CoalesceCount is the number of delivered flits acknowledged by one
	// ACK — the inverse of the paper's p_coalescing (CoalesceCount=10
	// means p_coalescing=0.1). Zero or below acknowledges every flit.
	CoalesceCount int

	// ReplayBufferSize is the maximum number of unacknowledged flits the
	// transmitter holds. When full, new payload submissions queue behind
	// the window. Must be < 512 so 10-bit wire numbers stay unambiguous.
	ReplayBufferSize int

	// AckTimeout is the longest the receiver holds a pending ACK waiting
	// for a reverse data flit to piggyback on before sending a standalone
	// ACK flit.
	AckTimeout sim.Time

	// RetryTimeout triggers a transmitter-initiated go-back-N replay if
	// the oldest unacknowledged flit has waited this long. It is the
	// backstop against lost ACK/NAK control flits.
	RetryTimeout sim.Time

	// The fields below are wiring, not choices, so they stay out of the
	// JSON form: core sets FastPath from Config.NoFastPath, and
	// MeshNode.PeerTo sets the routing fields of every mesh peer.

	// FastPath enables the error-event fast path: outgoing flits defer
	// their CRC/FEC computation and travel by reference with a clean
	// mark, and every hop consults the channel's pre-drawn error schedule
	// instead of scanning the image. Flits an error event (or fault hook,
	// or switch-internal corruption) does touch are materialized and
	// processed byte-level, so results are bit-identical to
	// FastPath=false for identical seeds — proven by the differential
	// tests in internal/core. Every flit a FastPath peer sends defers its
	// seal, first transmission or replay. Off for zero-value Configs;
	// DefaultConfig turns it on.
	FastPath bool `json:"-"`

	// StampRoute, when true, writes RouteTag and SrcTag into the fabric
	// routing bytes (flit.RouteOffset, flit.SrcRouteOffset) of every
	// outgoing flit, including control flits. Mesh routers route by these
	// bytes; point-to-point and chain topologies ignore them.
	StampRoute bool `json:"-"`
	// RouteTag is the destination endpoint tag (the remote peer).
	RouteTag byte `json:"-"`
	// SrcTag is this endpoint's own tag.
	SrcTag byte `json:"-"`
}

// DefaultConfig returns the configuration used by the paper's performance
// analysis: p_coalescing = 0.1 (Section 7.1.2), a 128-flit replay window,
// and timeouts comfortably above the 100ns retry latency (Section 7.2).
func DefaultConfig(p Protocol) Config {
	return Config{
		Protocol:         p,
		CoalesceCount:    10,
		ReplayBufferSize: 128,
		AckTimeout:       200 * sim.Nanosecond,
		RetryTimeout:     2 * sim.Microsecond,
		FastPath:         true,
	}
}

// Validate reports whether the configuration can drive a peer. Sizes and
// timeouts left at zero (or below) are not errors — NewPeer fills them
// with the DefaultConfig values, and a CoalesceCount of zero or below
// acknowledges every flit — so only combinations no default can repair
// are rejected.
func (c Config) Validate() error {
	switch {
	case c.Protocol < ProtocolCXL || c.Protocol > ProtocolRXL:
		return fmt.Errorf("link: unknown protocol %d", int(c.Protocol))
	case c.ReplayBufferSize >= 512:
		return fmt.Errorf("link: ReplayBufferSize %d must be < 512 for 10-bit sequence numbers", c.ReplayBufferSize)
	}
	return nil
}

// sanitize fills defaulted fields in place. An invalid configuration
// reaching a peer is a caller bug — configurations from outside the
// program go through Validate (core.Config.Validate) first — so it panics.
func (c *Config) sanitize() {
	if err := c.Validate(); err != nil {
		panic(err.Error())
	}
	def := DefaultConfig(c.Protocol)
	if c.CoalesceCount <= 0 {
		c.CoalesceCount = 1
	}
	if c.ReplayBufferSize <= 0 {
		c.ReplayBufferSize = def.ReplayBufferSize
	}
	if c.AckTimeout <= 0 {
		c.AckTimeout = def.AckTimeout
	}
	if c.RetryTimeout <= 0 {
		c.RetryTimeout = def.RetryTimeout
	}
}
