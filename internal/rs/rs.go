// Package rs implements the 3-way interleaved single-symbol-correct (SSC)
// Reed-Solomon FEC used by CXL 3.0 256-byte flits, as described in Section
// 2.5 of the paper: three shortened RS codes over GF(2^8) with 2 parity
// symbols each, interleaved byte-wise so that a burst of up to 3
// consecutive wire bytes lands on at most one symbol per sub-block and is
// therefore always correctable.
//
// Because the codes are shortened (85/85/86-symbol codewords inside the
// 255-symbol mother code), a decoder that locates an "error" in one of the
// 170 (or 169) vacant positions knows the word is uncorrectable. This gives
// the shortened code its partial detection capability: roughly two thirds of
// uncorrectable sub-block errors are flagged rather than miscorrected, the
// property RXL leans on to let switches drop bad flits early.
//
// Each kernel has one fast path and one reference. The fast path is one
// stride-3, slicing-by-8 remainder pass over the interleaved image
// (interleave.go): its registers are the encode's parity, their fold with
// the received parity is the clean check, and a dirty way's residue gives
// its syndromes directly. The reference is the per-way Code: its LFSR
// Encode, the byte-at-a-time syndromesRef, decodeSingle and
// VerifyReference. Building with -tags purego pins every call to the
// reference.
//
// Codes and Interleaved banks are immutable once built and keep no
// scratch: the reference loops deinterleave into a stack-local value. One
// codec may serve any number of goroutines.
package rs

import (
	"errors"
	"fmt"
)

// nparity is the number of parity symbols per sub-block: 2, so each way
// corrects a single symbol.
const nparity = 2

// gen is the generator polynomial g(x) = (x - α^0)(x - α^1) = x² + 3x + 2
// over 0x11D (α^0 = 1, α^1 = 2, and subtraction is XOR), monic, highest
// degree first.
var gen = [nparity + 1]byte{1, 3, 2}

// Status reports the outcome of a decode attempt.
type Status int

const (
	// StatusClean means the received word was a valid codeword.
	StatusClean Status = iota
	// StatusCorrected means errors were found and corrected in place.
	StatusCorrected
	// StatusUncorrectable means the decoder detected an error pattern it
	// cannot correct (including corrections that would land in the vacant
	// positions of a shortened code). The data must be discarded.
	StatusUncorrectable
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case StatusClean:
		return "clean"
	case StatusCorrected:
		return "corrected"
	case StatusUncorrectable:
		return "uncorrectable"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Result describes a decode outcome.
type Result struct {
	Status Status
	// Corrected is the number of symbol errors corrected (0 unless
	// Status == StatusCorrected).
	Corrected int
}

// Code is one sub-block of the flit FEC: a shortened single-symbol-correct
// RS code over GF(2^8) with k data symbols and 2 parity symbols.
type Code struct {
	k int // data symbols
	n int // codeword length k+nparity
}

// New constructs the shortened SSC code with k data symbols. The codeword
// length k+2 must not exceed 255.
func New(k int) (*Code, error) {
	if k <= 0 {
		return nil, errors.New("rs: k must be positive")
	}
	if k+nparity > order {
		return nil, fmt.Errorf("rs: codeword length %d exceeds %d", k+nparity, order)
	}
	return &Code{k: k, n: k + nparity}, nil
}

// MustNew is like New but panics on error.
func MustNew(k int) *Code {
	c, err := New(k)
	if err != nil {
		panic(err)
	}
	return c
}

// Encode computes the parity symbols for data (length k) into parity
// (length 2). It implements systematic encoding: parity is the remainder of
// data(x)*x^2 divided by the generator polynomial, so the transmitted
// codeword is data followed by parity. It is the reference the stride-3
// table kernel is pinned against.
func (c *Code) Encode(data, parity []byte) {
	if len(data) != c.k {
		panic(fmt.Sprintf("rs: Encode data length %d, want %d", len(data), c.k))
	}
	if len(parity) != nparity {
		panic(fmt.Sprintf("rs: Encode parity length %d, want %d", len(parity), nparity))
	}
	for i := range parity {
		parity[i] = 0
	}
	// LFSR division: shift data through, feeding back by the generator's
	// lower coefficients (gen[0] is the monic leading 1).
	for _, d := range data {
		fb := d ^ parity[0]
		copy(parity, parity[1:])
		parity[nparity-1] = 0
		if fb != 0 {
			for j := 1; j < len(gen); j++ {
				parity[j-1] ^= mul(gen[j], fb)
			}
		}
	}
}

// syndromesRef returns S_0 (low byte) and S_1 (next byte) of the received
// word data||parity packed into one word, which is zero exactly when the
// word is a codeword. It is the byte-at-a-time Horner reference the
// remainder kernel is differentially pinned against: S_j = r(α^j).
// Do not "optimize" it.
func syndromesRef(data, parity []byte) uint64 {
	var w uint64
	for j := 0; j < nparity; j++ {
		x := exp(j)
		var acc byte
		for _, d := range data {
			acc = mul(acc, x) ^ d
		}
		for _, p := range parity {
			acc = mul(acc, x) ^ p
		}
		w |= uint64(acc) << (8 * j)
	}
	return w
}

// decode checks and, if necessary, corrects the received word consisting
// of data (length k) and parity (length 2), in place.
func (c *Code) decode(data, parity []byte) Result {
	if len(data) != c.k || len(parity) != nparity {
		panic("rs: Decode length mismatch")
	}
	s := syndromesRef(data, parity)
	if s == 0 {
		return Result{Status: StatusClean}
	}
	return c.decodeSingle(data, parity, byte(s), byte(s>>8))
}

// VerifyReference reports whether data||parity is a valid codeword on the
// byte-at-a-time reference syndromes, regardless of build tags: no locator
// search, no correction, no mutation.
func (c *Code) VerifyReference(data, parity []byte) bool {
	if len(data) != c.k || len(parity) != nparity {
		panic("rs: Verify length mismatch")
	}
	return syndromesRef(data, parity) == 0
}

// decodeSingle corrects the single symbol error that locate finds from
// the syndromes S0 and S1; its magnitude is S0 directly.
func (c *Code) decodeSingle(data, parity []byte, s0, s1 byte) Result {
	p, ok := locate(c.n, s0, s1)
	if !ok {
		return Result{Status: StatusUncorrectable}
	}
	// Positions [0, nparity) address parity (lowest degrees); positions
	// [nparity, n) address data, with data[0] the highest-degree
	// coefficient.
	if p < nparity {
		parity[nparity-1-p] ^= s0
	} else {
		data[c.k-1-(p-nparity)] ^= s0
	}
	return Result{Status: StatusCorrected, Corrected: 1}
}

// locate returns the polynomial position p of a single symbol error in an
// n-symbol codeword from its syndromes S0 = e and S1 = e·α^p, or ok =
// false when no single error explains them. It honours the shortened-code
// detection rule: a location outside the transmitted codeword is one of
// the zero-padded vacant positions and is reported uncorrectable rather
// than "corrected" (Section 2.5).
func locate(n int, s0, s1 byte) (p int, ok bool) {
	if s0 == 0 || s1 == 0 {
		// A single symbol error always yields two nonzero syndromes;
		// one zero syndrome proves at least two errors.
		return 0, false
	}
	p = log(s1) - log(s0)
	if p < 0 {
		p += order
	}
	// p >= n falls in a vacant (zero-padded) position of the shortened
	// code: detected uncorrectable.
	return p, p < n
}
