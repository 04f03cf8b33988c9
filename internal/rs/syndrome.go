// Word-parallel syndrome evaluation: the vectored half of the coding
// kernel layer (the CRC half lives in internal/crc).
//
// Both syndromes are Horner evaluations of the same received word at the
// points α^0 and α^1. Packing the accumulators S_0 and S_1 into the two low
// byte lanes of one uint64 turns the per-byte inner step
//
//	S_j ← S_j·α^j ⊕ d        (for j = 0, 1)
//
// into a handful of table lookups on the whole word: multiplying lane j by
// its fixed constant α^j is GF(2)-linear in the lane byte, so a 256-entry
// uint64 table per lane advances that lane and the results XOR together.
// Broadcasting the data byte into both lanes is one integer multiply by
// 0x0101. The hot loop consumes two received bytes per iteration — the
// accumulator advance uses two-step tables (α^(2j)), the older data byte is
// pre-advanced one step through a shared lookup (g1), and the newer one is
// broadcast directly — so the loop-carried dependence is two parallel L1
// loads per two bytes instead of four serial exp/log-table multiplies.
//
// syndromesRef in rs.go is the byte-at-a-time reference this path is
// differentially pinned against; the purego build tag falls back to it.
package rs

// synTab holds the two-lane advance tables.
type synTab struct {
	// t1[j][b]: lane j advanced one Horner step, b·α^j, pre-shifted into
	// lane position. Used for odd tails and the parity field.
	t1 [nparity][256]uint64
	// t2[j][b]: lane j advanced two steps, b·α^(2j), pre-shifted.
	t2 [nparity][256]uint64
	// g1[b]: the data byte one step from the pair boundary, advanced one
	// step in both lanes at once (t1[0][b] ^ t1[1][b]).
	g1 [256]uint64
}

// syn2 is the process-wide table bank, built once at init like encTab2.
var syn2 = func() (v synTab) {
	for j := 0; j < nparity; j++ {
		a1 := exp(j)
		a2 := mul(a1, a1)
		shift := 8 * uint(j)
		for b := 0; b < 256; b++ {
			v.t1[j][b] = uint64(mul(byte(b), a1)) << shift
			v.t2[j][b] = uint64(mul(byte(b), a2)) << shift
			v.g1[b] ^= v.t1[j][b]
		}
	}
	return v
}()

// horner2 advances a two-lane accumulator across s.
func horner2(acc uint64, s []byte) uint64 {
	t2a, t2b := &syn2.t2[0], &syn2.t2[1]
	g1 := &syn2.g1
	i := 0
	for ; i+1 < len(s); i += 2 {
		acc = t2a[byte(acc)] ^ t2b[byte(acc>>8)] ^
			g1[s[i]] ^ uint64(s[i+1])*0x0101
	}
	if i < len(s) {
		acc = step2(acc, s[i])
	}
	return acc
}

// step2 advances a two-lane accumulator by one received byte.
func step2(acc uint64, b byte) uint64 {
	return syn2.t1[0][byte(acc)] ^ syn2.t1[1][byte(acc>>8)] ^ uint64(b)*0x0101
}
