// Word-parallel syndrome evaluation: the vectored half of the coding
// kernel layer (the CRC half lives in internal/crc).
//
// All nparity syndromes are Horner evaluations of the same received word
// at the points α^0..α^(nparity-1). Packing the accumulators S_0..S_(np-1)
// into the byte lanes of one uint64 turns the per-byte inner step
//
//	S_j ← S_j·α^j ⊕ d        (for every j)
//
// into a handful of table lookups on the whole word: multiplying lane j by
// its fixed constant α^j is GF(2)-linear in the lane byte, so a 256-entry
// uint64 table per lane advances that lane and the results XOR together.
// Broadcasting the data byte into the active lanes is one integer multiply
// by the lane mask. The hot loop consumes two received bytes per
// iteration — the accumulator advance uses two-step tables (α^(2j)), the
// older data byte is pre-advanced one step through a shared lookup (g1),
// and the newer one is broadcast directly — so the loop-carried dependence
// is np parallel L1 loads per two bytes instead of 2·np serial
// exp/log-table multiplies.
//
// The byte-at-a-time loops in rs.go (syndromesRef) are kept verbatim as
// the reference this path is differentially pinned against; the purego
// build tag (and nparity > 8) falls back to them.
package rs

import (
	"sync"

	"repro/internal/gf256"
)

// synLanes is the widest bank the packed evaluator supports: eight
// syndrome lanes in one 64-bit word. Codes with more parity symbols use
// the byte-level reference.
const synLanes = 8

// synTab holds the per-lane advance tables for one nparity. Tables depend
// only on nparity (never on k), so they are shared process-wide across all
// codes of equal strength.
type synTab struct {
	np   int
	mask uint64 // byte 0x01 in each of the np low lanes
	// t1[j][b]: lane j advanced one Horner step, b·α^j, pre-shifted into
	// lane position. Used for odd tails and the final unpaired byte.
	t1 [][256]uint64
	// t2[j][b]: lane j advanced two steps, b·α^(2j), pre-shifted.
	t2 [][256]uint64
	// g1[b]: the data byte one step from the pair boundary, advanced one
	// step in every lane at once (XOR over j of t1[j][b]).
	g1 [256]uint64
}

var (
	synTabMu sync.Mutex
	synTabs  [synLanes + 1]*synTab
)

// synTabFor returns the shared advance tables for an nparity-lane bank,
// building them on first use. Returns nil when nparity exceeds synLanes.
func synTabFor(nparity int) *synTab {
	if nparity < 1 || nparity > synLanes {
		return nil
	}
	synTabMu.Lock()
	defer synTabMu.Unlock()
	if v := synTabs[nparity]; v != nil {
		return v
	}
	v := &synTab{
		np: nparity,
		t1: make([][256]uint64, nparity),
		t2: make([][256]uint64, nparity),
	}
	for j := 0; j < nparity; j++ {
		a1 := gf256.Exp(j)
		a2 := gf256.Mul(a1, a1)
		shift := 8 * uint(j)
		for b := 0; b < 256; b++ {
			v.t1[j][b] = uint64(gf256.Mul(byte(b), a1)) << shift
			v.t2[j][b] = uint64(gf256.Mul(byte(b), a2)) << shift
			v.g1[b] ^= v.t1[j][b]
		}
		v.mask |= 1 << shift
	}
	synTabs[nparity] = v
	return v
}

// syndromeWord evaluates all syndromes of data||parity packed into one
// uint64, lane j holding S_j. The word is zero exactly when the received
// word is a codeword. Requires c.vec != nil (nparity ≤ synLanes).
func (c *Code) syndromeWord(data, parity []byte) uint64 {
	if c.nparity == 2 {
		// The spec-fixed single-symbol-correct codes: a dedicated
		// two-lane loop keeps the table pointers in registers.
		acc := c.vec.horner2(0, data)
		return c.vec.horner2(acc, parity)
	}
	acc := c.vec.hornerN(0, data)
	return c.vec.hornerN(acc, parity)
}

// horner2 advances a two-lane accumulator across s.
func (v *synTab) horner2(acc uint64, s []byte) uint64 {
	t2a, t2b := &v.t2[0], &v.t2[1]
	g1 := &v.g1
	i := 0
	for ; i+1 < len(s); i += 2 {
		acc = t2a[byte(acc)] ^ t2b[byte(acc>>8)] ^
			g1[s[i]] ^ uint64(s[i+1])*0x0101
	}
	if i < len(s) {
		acc = v.step2(acc, s[i])
	}
	return acc
}

// step2 advances a two-lane accumulator by one received byte.
func (v *synTab) step2(acc uint64, b byte) uint64 {
	return v.t1[0][byte(acc)] ^ v.t1[1][byte(acc>>8)] ^ uint64(b)*0x0101
}

// hornerN is the generic bank (3 ≤ np ≤ 8): same two-byte schedule, lane
// advance in a short loop.
func (v *synTab) hornerN(acc uint64, s []byte) uint64 {
	i := 0
	for ; i+1 < len(s); i += 2 {
		var next uint64
		for j := 0; j < v.np; j++ {
			next ^= v.t2[j][byte(acc>>(8*uint(j)))]
		}
		acc = next ^ v.g1[s[i]] ^ uint64(s[i+1])*v.mask
	}
	if i < len(s) {
		var next uint64
		for j := 0; j < v.np; j++ {
			next ^= v.t1[j][byte(acc>>(8*uint(j)))]
		}
		acc = next ^ uint64(s[i])*v.mask
	}
	return acc
}
