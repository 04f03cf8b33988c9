package rs

import "fmt"

// ways is the interleave depth of the flit FEC: three sub-blocks.
const ways = 3

// Interleaved is the flit FEC: a byte-interleaved bank of three shortened
// SSC codes. CXL 3.0 protects 250 bytes with it: byte i of the protected
// region belongs to sub-block i mod 3, each sub-block carries 2 parity
// bytes, and the round-robin assignment continues uninterrupted across the
// parity field (wire byte total+x belongs to sub-block (total+x) mod 3). A
// burst of up to 3 consecutive wire bytes — anywhere in the flit, including
// straddling the data/parity boundary — therefore touches at most one
// symbol per sub-block and is always correctable.
//
// An Interleaved is immutable once built: every call works on its
// arguments and on stack-local values, so any number of goroutines may
// share one codec.
type Interleaved struct {
	total int // protected data bytes
	codes [ways]*Code
	// parityWay[x] and parityIdx[x] map wire parity slot x to (way, symbol).
	parityWay [ways * nparity]int
	parityIdx [ways * nparity]int
}

// deint is a protected image cut into its ways, as the per-way reference
// loops read it: way w's data word is data[w][:codes[w].k]. It lives on
// the caller's stack, which is what keeps the codec free of scratch.
type deint struct {
	data   [ways][order - nparity]byte
	parity [ways][nparity]byte
}

// NewInterleaved builds the 3-way SSC bank protecting total data bytes.
func NewInterleaved(total int) (*Interleaved, error) {
	// Every way needs a data symbol, and no way's codeword may outgrow
	// the 255-symbol mother code.
	if maxTotal := ways * (order - nparity); total < ways || total > maxTotal {
		return nil, fmt.Errorf("rs: interleave of %d data bytes, want %d..%d", total, ways, maxTotal)
	}
	il := &Interleaved{total: total}
	for w := range il.codes {
		k := total / ways
		if w < total%ways {
			k++
		}
		il.codes[w] = MustNew(k)
	}
	// Continue the data region's round-robin through the parity field so a
	// burst crossing the boundary still spreads across sub-blocks. Any run
	// of ways*nparity consecutive positions hits each residue class
	// exactly nparity times, so every way receives its full parity.
	var seen [ways]int
	for x := range il.parityWay {
		w := (total + x) % ways
		il.parityWay[x] = w
		il.parityIdx[x] = seen[w]
		seen[w]++
	}
	return il, nil
}

// MustNewInterleaved is like NewInterleaved but panics on error.
func MustNewInterleaved(total int) *Interleaved {
	il, err := NewInterleaved(total)
	if err != nil {
		panic(err)
	}
	return il
}

// DataLen returns the number of protected data bytes.
func (il *Interleaved) DataLen() int { return il.total }

// ParityLen returns the total number of parity bytes on the wire.
func (il *Interleaved) ParityLen() int { return ways * nparity }

// checkLen panics unless data and parity are a whole protected image; the
// stack names the entry point.
func (il *Interleaved) checkLen(data, parity []byte) {
	if len(data) != il.total || len(parity) != ways*nparity {
		panic("rs: interleaved data/parity length mismatch")
	}
}

// split cuts the wire image into its per-way words.
func (il *Interleaved) split(data, parity []byte) (sp deint) {
	for w, c := range il.codes {
		for i := range c.k {
			sp.data[w][i] = data[i*ways+w]
		}
	}
	for x, p := range parity {
		sp.parity[il.parityWay[x]][il.parityIdx[x]] = p
	}
	return sp
}

// joinParity writes sp's per-way parity back to its wire slots.
func (il *Interleaved) joinParity(sp *deint, parity []byte) {
	for x := range parity {
		parity[x] = sp.parity[il.parityWay[x]][il.parityIdx[x]]
	}
}

// Encode computes the interleaved parity for data (length DataLen) into
// parity (length ParityLen). The parity wire layout continues the data
// round-robin: parity slot x carries the next symbol of way (total+x)%3.
func (il *Interleaved) Encode(data, parity []byte) {
	il.checkLen(data, parity)
	if slicedRemainder {
		r := remainders(data)
		for x := range parity {
			parity[x] = byte(r[il.parityWay[x]] >> (8 * il.parityIdx[x]))
		}
		return
	}
	sp := il.split(data, parity)
	for w, c := range il.codes {
		c.Encode(sp.data[w][:c.k], sp.parity[w][:])
	}
	il.joinParity(&sp, parity)
}

// remTab[e-2][b] is b·(x^e mod g) for e = 2..9, packed like a remainder
// register: the x¹ coefficient in the low byte, the x⁰ one in the high
// byte. remTab[0] is one LFSR step's feedback (g1·b, g2·b) of
// Code.Encode; the eight slices together advance a register by eight
// symbols.
var remTab = func() (t [8][256]uint16) {
	c1, c0 := byte(1), byte(0) // x¹
	for e := range t {
		// Multiply by x and reduce: x² ≡ g1·x + g2 (mod g).
		c1, c0 = mul(gen[1], c1)^c0, mul(gen[2], c1)
		for b := range t[e] {
			t[e][b] = uint16(mul(byte(b), c1)) | uint16(mul(byte(b), c0))<<8
		}
	}
	return t
}()

// remainders runs the three ways' remainder registers r = data(x)·x² mod
// g over the interleaved image in one stride-3 pass, with no deinterleave
// copy. Each 24-byte block advances every way by eight symbols at once
// (slicing-by-8): the register's two bytes join the block's two oldest
// symbols, and eight independent lookups replace eight dependent LFSR
// steps. The tail runs the one-symbol step of Code.Encode.
func remainders(data []byte) [ways]uint16 {
	t := &remTab
	var s0, s1, s2 uint16
	i := 0
	for ; i+24 <= len(data); i += 24 {
		b := data[i : i+24 : i+24]
		s0 = t[7][b[0]^byte(s0)] ^ t[6][b[3]^byte(s0>>8)] ^ t[5][b[6]] ^ t[4][b[9]] ^
			t[3][b[12]] ^ t[2][b[15]] ^ t[1][b[18]] ^ t[0][b[21]]
		s1 = t[7][b[1]^byte(s1)] ^ t[6][b[4]^byte(s1>>8)] ^ t[5][b[7]] ^ t[4][b[10]] ^
			t[3][b[13]] ^ t[2][b[16]] ^ t[1][b[19]] ^ t[0][b[22]]
		s2 = t[7][b[2]^byte(s2)] ^ t[6][b[5]^byte(s2>>8)] ^ t[5][b[8]] ^ t[4][b[11]] ^
			t[3][b[14]] ^ t[2][b[17]] ^ t[1][b[20]] ^ t[0][b[23]]
	}
	for ; i+3 <= len(data); i += 3 {
		s0 = s0>>8 ^ t[0][data[i]^byte(s0)]
		s1 = s1>>8 ^ t[0][data[i+1]^byte(s1)]
		s2 = s2>>8 ^ t[0][data[i+2]^byte(s2)]
	}
	r := [ways]uint16{s0, s1, s2}
	for w, d := range data[i:] {
		r[w] = r[w]>>8 ^ t[0][d^byte(r[w])]
	}
	return r
}

// residues folds the received parity into each way's data remainder,
// leaving the remainder of the whole received word: zero exactly when the
// way is a codeword. It is the clean check of both Decode and Verify.
func (il *Interleaved) residues(data, parity []byte) [ways]uint16 {
	r := remainders(data)
	for x, p := range parity {
		r[il.parityWay[x]] ^= uint16(p) << (8 * il.parityIdx[x])
	}
	return r
}

// residueSyndromes returns the syndromes of a way from its residue
// r1·x + r0 (r1 in the low byte). The received word is its residue plus a
// multiple of g, and g vanishes at α⁰ and α¹, so S0 = r(1) = r1 ⊕ r0 and
// S1 = r(α) = α·r1 ⊕ r0.
func residueSyndromes(r uint16) (s0, s1 byte) {
	r1, r0 := byte(r), byte(r>>8)
	return r1 ^ r0, mul(exp(1), r1) ^ r0
}

// Decode checks and corrects data and parity in place. The whole flit is
// uncorrectable as soon as any single way is uncorrectable; corrected counts
// accumulate across ways.
func (il *Interleaved) Decode(data, parity []byte) Result {
	il.checkLen(data, parity)
	if slicedRemainder {
		return il.decodeResidues(data, parity)
	}
	sp := il.split(data, parity)
	total := Result{Status: StatusClean}
	for w, c := range il.codes {
		res := c.decode(sp.data[w][:c.k], sp.parity[w][:])
		switch res.Status {
		case StatusUncorrectable:
			return Result{Status: StatusUncorrectable}
		case StatusCorrected:
			total.Status = StatusCorrected
			total.Corrected += res.Corrected
		}
	}
	if total.Status == StatusCorrected {
		for w, c := range il.codes {
			for i, d := range sp.data[w][:c.k] {
				data[i*ways+w] = d
			}
		}
		il.joinParity(&sp, parity)
	}
	return total
}

// decodeResidues is Decode on the interleaved image itself: each way's
// residue gives its syndromes, and every way is located before any byte
// moves, so an uncorrectable flit is left as received.
func (il *Interleaved) decodeResidues(data, parity []byte) Result {
	r := il.residues(data, parity)
	if r[0]|r[1]|r[2] == 0 {
		return Result{Status: StatusClean}
	}
	// A located way's magnitude S0 is nonzero; a clean way's stays 0.
	var pos [ways]int
	var mag [ways]byte
	for w, rw := range r {
		if rw == 0 {
			continue
		}
		s0, s1 := residueSyndromes(rw)
		p, ok := locate(il.codes[w].n, s0, s1)
		if !ok {
			return Result{Status: StatusUncorrectable}
		}
		pos[w], mag[w] = p, s0
	}
	res := Result{Status: StatusCorrected}
	for w, e := range mag {
		if e == 0 {
			continue
		}
		if p := pos[w]; p >= nparity {
			data[(il.codes[w].k-1-(p-nparity))*ways+w] ^= e
		} else {
			for x := range parity {
				if il.parityWay[x] == w && il.parityIdx[x] == nparity-1-p {
					parity[x] ^= e
				}
			}
		}
		res.Corrected++
	}
	return res
}

// Verify reports whether data||parity is a valid interleaved codeword from
// its residues alone — no correction attempt, no mutation.
func (il *Interleaved) Verify(data, parity []byte) bool {
	if !slicedRemainder {
		return il.VerifyReference(data, parity)
	}
	il.checkLen(data, parity)
	r := il.residues(data, parity)
	return r[0]|r[1]|r[2] == 0
}

// VerifyReference is Verify on the byte-level reference syndrome loop of
// every way, regardless of build tags. Differential suites use it as the
// pinned slow path; simulation code should call Verify.
func (il *Interleaved) VerifyReference(data, parity []byte) bool {
	il.checkLen(data, parity)
	sp := il.split(data, parity)
	for w, c := range il.codes {
		if !c.VerifyReference(sp.data[w][:c.k], sp.parity[w][:]) {
			return false
		}
	}
	return true
}
