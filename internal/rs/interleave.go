package rs

import (
	"fmt"

	"repro/internal/gf256"
)

// Interleaved is a byte-interleaved bank of identical-strength shortened RS
// codes. CXL 3.0's flit FEC is Interleaved{total: 250, ways: 3, nparity: 2}:
// byte i of the protected region belongs to sub-block i mod 3, each
// sub-block carries 2 parity bytes, and the round-robin assignment continues
// uninterrupted across the parity field (wire byte total+x belongs to
// sub-block (total+x) mod ways). A burst of up to `ways` consecutive wire
// bytes — anywhere in the flit, including straddling the data/parity
// boundary — therefore touches at most one symbol per sub-block and is
// always correctable when each sub-block corrects a single symbol.
type Interleaved struct {
	total   int // protected data bytes
	ways    int
	nparity int // parity symbols per way
	codes   []*Code
	// parityWay[x] and parityIdx[x] map wire parity slot x to (way, symbol).
	parityWay []int
	parityIdx []int
	// fused selects the stride-3 kernels (encode3x2, clean3x2) for the
	// spec's 3-way, 2-parity geometry on the vectored build.
	fused bool
	// scratch buffers reused across calls; an Interleaved is NOT safe for
	// concurrent use. Clone per goroutine.
	deint  [][]byte
	parity [][]byte
	synd   []byte
}

// NewInterleaved builds a ways-way interleaved bank protecting total data
// bytes with nparity parity symbols per way.
func NewInterleaved(total, ways, nparity int) (*Interleaved, error) {
	if total <= 0 || ways <= 0 || nparity <= 0 {
		return nil, fmt.Errorf("rs: invalid interleave geometry total=%d ways=%d nparity=%d", total, ways, nparity)
	}
	il := &Interleaved{total: total, ways: ways, nparity: nparity,
		fused: vectoredSyndromes && ways == 3 && nparity == 2}
	for w := 0; w < ways; w++ {
		k := total / ways
		if w < total%ways {
			k++
		}
		if k == 0 {
			return nil, fmt.Errorf("rs: interleave way %d would be empty", w)
		}
		c, err := New(k, nparity)
		if err != nil {
			return nil, err
		}
		il.codes = append(il.codes, c)
		il.deint = append(il.deint, make([]byte, k))
		il.parity = append(il.parity, make([]byte, nparity))
	}
	il.synd = make([]byte, nparity)
	// Continue the data region's round-robin through the parity field so a
	// burst crossing the boundary still spreads across sub-blocks. Any run
	// of ways*nparity consecutive positions hits each residue class
	// exactly nparity times, so every way receives its full parity.
	seen := make([]int, ways)
	for x := 0; x < ways*nparity; x++ {
		w := (total + x) % ways
		il.parityWay = append(il.parityWay, w)
		il.parityIdx = append(il.parityIdx, seen[w])
		seen[w]++
	}
	return il, nil
}

// MustNewInterleaved is like NewInterleaved but panics on error.
func MustNewInterleaved(total, ways, nparity int) *Interleaved {
	il, err := NewInterleaved(total, ways, nparity)
	if err != nil {
		panic(err)
	}
	return il
}

// DataLen returns the number of protected data bytes.
func (il *Interleaved) DataLen() int { return il.total }

// ParityLen returns the total number of parity bytes on the wire.
func (il *Interleaved) ParityLen() int { return il.ways * il.nparity }

func (il *Interleaved) deinterleave(data []byte) {
	for w := range il.deint {
		for i := range il.deint[w] {
			il.deint[w][i] = data[i*il.ways+w]
		}
	}
}

func (il *Interleaved) reinterleave(data []byte) {
	for w := range il.deint {
		for i := range il.deint[w] {
			data[i*il.ways+w] = il.deint[w][i]
		}
	}
}

// Encode computes the interleaved parity for data (length DataLen) into
// parity (length ParityLen). The parity wire layout continues the data
// round-robin: parity slot x carries the next symbol of way (total+x)%ways.
func (il *Interleaved) Encode(data, parity []byte) {
	if len(data) != il.total {
		panic(fmt.Sprintf("rs: interleaved Encode data length %d, want %d", len(data), il.total))
	}
	if len(parity) != il.ParityLen() {
		panic(fmt.Sprintf("rs: interleaved Encode parity length %d, want %d", len(parity), il.ParityLen()))
	}
	if il.fused {
		il.encode3x2(data, parity)
		return
	}
	il.deinterleave(data)
	for w, c := range il.codes {
		c.Encode(il.deint[w], il.parity[w])
	}
	for x := range parity {
		parity[x] = il.parity[il.parityWay[x]][il.parityIdx[x]]
	}
}

// encTab2[fb] packs the two-parity LFSR feedback g1·fb (low byte) and
// g2·fb (high byte) of g(x) = x² + g1·x + g2, so one lookup replaces the
// two gf256.Mul calls of Code.Encode's inner loop.
var encTab2 = func() (t [256]uint16) {
	g := MustNew(1, 2).gen
	for fb := range t {
		t[fb] = uint16(gf256.Mul(g[1], byte(fb))) | uint16(gf256.Mul(g[2], byte(fb)))<<8
	}
	return t
}()

// encode3x2 runs the three ways' LFSRs in one stride-3 pass straight off
// the interleaved image, with no deinterleave copy. Register s of a way
// packs (parity[0], parity[1]) in its low and high bytes; one step is
// Code.Encode's shift-and-feedback.
func (il *Interleaved) encode3x2(data, parity []byte) {
	t := &encTab2
	var s0, s1, s2 uint16
	i := 0
	for ; i+3 <= len(data); i += 3 {
		s0 = s0>>8 ^ t[data[i]^byte(s0)]
		s1 = s1>>8 ^ t[data[i+1]^byte(s1)]
		s2 = s2>>8 ^ t[data[i+2]^byte(s2)]
	}
	s := [3]uint16{s0, s1, s2}
	for w, d := range data[i:] {
		s[w] = s[w]>>8 ^ t[d^byte(s[w])]
	}
	for x := range parity {
		parity[x] = byte(s[il.parityWay[x]] >> (8 * il.parityIdx[x]))
	}
}

// clean3x2 reports whether data||parity is a codeword: three independent
// horner2 chains, one per way, read the image at stride 3 and pack each
// way's (S0, S1) into one word. It is the clean check of both Decode and
// Verify on the fused geometry.
func (il *Interleaved) clean3x2(data, parity []byte) bool {
	v := il.codes[0].vec
	t2a, t2b, g1 := &v.t2[0], &v.t2[1], &v.g1
	var a0, a1, a2 uint64
	i := 0
	for ; i+6 <= len(data); i += 6 {
		a0 = t2a[byte(a0)] ^ t2b[byte(a0>>8)] ^ g1[data[i]] ^ uint64(data[i+3])*0x0101
		a1 = t2a[byte(a1)] ^ t2b[byte(a1>>8)] ^ g1[data[i+1]] ^ uint64(data[i+4])*0x0101
		a2 = t2a[byte(a2)] ^ t2b[byte(a2>>8)] ^ g1[data[i+2]] ^ uint64(data[i+5])*0x0101
	}
	// The last few data bytes and the parity field, one step at a time.
	acc := [3]uint64{a0, a1, a2}
	for j, d := range data[i:] {
		acc[j%3] = v.step2(acc[j%3], d)
	}
	for x, p := range parity {
		acc[il.parityWay[x]] = v.step2(acc[il.parityWay[x]], p)
	}
	return acc[0]|acc[1]|acc[2] == 0
}

// Decode checks and corrects data and parity in place. The whole flit is
// uncorrectable as soon as any single way is uncorrectable; corrected counts
// accumulate across ways.
func (il *Interleaved) Decode(data, parity []byte) Result {
	if len(data) != il.total || len(parity) != il.ParityLen() {
		panic("rs: interleaved Decode length mismatch")
	}
	if il.fused && il.clean3x2(data, parity) {
		return Result{Status: StatusClean}
	}
	il.deinterleave(data)
	for x := range parity {
		il.parity[il.parityWay[x]][il.parityIdx[x]] = parity[x]
	}
	total := Result{Status: StatusClean}
	for w, c := range il.codes {
		res := c.DecodeScratch(il.deint[w], il.parity[w], il.synd)
		switch res.Status {
		case StatusUncorrectable:
			return Result{Status: StatusUncorrectable}
		case StatusCorrected:
			total.Status = StatusCorrected
			total.Corrected += res.Corrected
		}
	}
	if total.Status == StatusCorrected {
		il.reinterleave(data)
		for x := range parity {
			parity[x] = il.parity[il.parityWay[x]][il.parityIdx[x]]
		}
	}
	return total
}

// Verify reports whether data||parity is a valid interleaved codeword via
// syndromes only — no correction attempt, no mutation. See Code.Verify.
func (il *Interleaved) Verify(data, parity []byte) bool {
	if il.fused && len(data) == il.total && len(parity) == il.ParityLen() {
		return il.clean3x2(data, parity)
	}
	return il.verify(data, parity, (*Code).Verify)
}

// VerifyReference is Verify on the byte-level reference syndrome loop of
// every way, bypassing the word-parallel kernel. Differential suites use it
// as the pinned slow path; simulation code should call Verify.
func (il *Interleaved) VerifyReference(data, parity []byte) bool {
	return il.verify(data, parity, (*Code).VerifyReference)
}

func (il *Interleaved) verify(data, parity []byte, way func(c *Code, data, parity []byte) bool) bool {
	if len(data) != il.total || len(parity) != il.ParityLen() {
		panic("rs: interleaved Verify length mismatch")
	}
	il.deinterleave(data)
	for x := range parity {
		il.parity[il.parityWay[x]][il.parityIdx[x]] = parity[x]
	}
	for w, c := range il.codes {
		if !way(c, il.deint[w], il.parity[w]) {
			return false
		}
	}
	return true
}
