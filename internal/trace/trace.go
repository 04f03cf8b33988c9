// Package trace holds the tagged-payload conventions the simulation
// experiments share — a sequential tag in a payload's first eight bytes and
// a Checker validating exactly-once in-order delivery against it — and the
// replay-trace parser behind the trace-driven workload (replay.go).
package trace

import (
	"encoding/binary"
	"fmt"

	"repro/internal/flit"
)

// TagPayload builds a payload carrying tag in its first eight bytes,
// padding to size bytes (minimum 8).
func TagPayload(tag uint64, size int) []byte {
	if size < 8 {
		size = 8
	}
	if size > flit.PayloadSize {
		panic(fmt.Sprintf("trace: payload size %d exceeds flit payload %d", size, flit.PayloadSize))
	}
	p := make([]byte, size)
	binary.BigEndian.PutUint64(p, tag)
	return p
}

// TagOf recovers the tag from a delivered payload.
func TagOf(payload []byte) uint64 {
	return binary.BigEndian.Uint64(payload)
}

// Checker validates delivered payloads against the tag sequence: exactly
// once, in order.
type Checker struct {
	// Next is the next expected tag.
	Next uint64
	// OutOfOrder counts deliveries whose tag was not the expected one.
	OutOfOrder int
	// Duplicates counts deliveries of tags already seen.
	Duplicates int
	// Delivered counts all deliveries.
	Delivered int

	seen map[uint64]bool
}

// NewChecker returns a checker expecting tags 0,1,2,…
func NewChecker() *Checker {
	return &Checker{seen: make(map[uint64]bool)}
}

// Deliver is the delivery callback: feed it every payload the endpoint
// hands up.
func (c *Checker) Deliver(payload []byte) {
	tag := TagOf(payload)
	c.Delivered++
	if c.seen[tag] {
		c.Duplicates++
	}
	c.seen[tag] = true
	if tag != c.Next {
		c.OutOfOrder++
		if tag > c.Next {
			c.Next = tag + 1
		}
		return
	}
	c.Next++
}
