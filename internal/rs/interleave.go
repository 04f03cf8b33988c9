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
type Interleaved struct {
	total int // protected data bytes
	codes [ways]*Code
	// parityWay[x] and parityIdx[x] map wire parity slot x to (way, symbol).
	parityWay [ways * nparity]int
	parityIdx [ways * nparity]int
	// scratch buffers reused across calls; an Interleaved is NOT safe for
	// concurrent use. Clone per goroutine.
	deint  [ways][]byte
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
		il.deint[w] = make([]byte, k)
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

// split copies the wire image into the per-way scratch words.
func (il *Interleaved) split(data, parity []byte) {
	for w := range il.deint {
		for i := range il.deint[w] {
			il.deint[w][i] = data[i*ways+w]
		}
	}
	for x, p := range parity {
		il.parity[il.parityWay[x]][il.parityIdx[x]] = p
	}
}

// joinParity writes the per-way parity back to its wire slots.
func (il *Interleaved) joinParity(parity []byte) {
	for x := range parity {
		parity[x] = il.parity[il.parityWay[x]][il.parityIdx[x]]
	}
}

// Encode computes the interleaved parity for data (length DataLen) into
// parity (length ParityLen). The parity wire layout continues the data
// round-robin: parity slot x carries the next symbol of way (total+x)%3.
func (il *Interleaved) Encode(data, parity []byte) {
	il.checkLen(data, parity)
	if vectoredSyndromes {
		il.encode3x2(data, parity)
		return
	}
	il.split(data, parity)
	for w, c := range il.codes {
		c.Encode(il.deint[w], il.parity[w][:])
	}
	il.joinParity(parity)
}

// encTab2[fb] packs the two-parity LFSR feedback g1·fb (low byte) and
// g2·fb (high byte) of g(x) = x² + g1·x + g2, so one lookup replaces the
// two mul calls of Code.Encode's inner loop.
var encTab2 = func() (t [256]uint16) {
	for fb := range t {
		t[fb] = uint16(mul(gen[1], byte(fb))) | uint16(mul(gen[2], byte(fb)))<<8
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
	s := [ways]uint16{s0, s1, s2}
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
// Verify.
func (il *Interleaved) clean3x2(data, parity []byte) bool {
	t2a, t2b, g1 := &syn2.t2[0], &syn2.t2[1], &syn2.g1
	var a0, a1, a2 uint64
	i := 0
	for ; i+6 <= len(data); i += 6 {
		a0 = t2a[byte(a0)] ^ t2b[byte(a0>>8)] ^ g1[data[i]] ^ uint64(data[i+3])*0x0101
		a1 = t2a[byte(a1)] ^ t2b[byte(a1>>8)] ^ g1[data[i+1]] ^ uint64(data[i+4])*0x0101
		a2 = t2a[byte(a2)] ^ t2b[byte(a2>>8)] ^ g1[data[i+2]] ^ uint64(data[i+5])*0x0101
	}
	// The last few data bytes and the parity field, one step at a time.
	acc := [ways]uint64{a0, a1, a2}
	for j, d := range data[i:] {
		acc[j%ways] = step2(acc[j%ways], d)
	}
	for x, p := range parity {
		acc[il.parityWay[x]] = step2(acc[il.parityWay[x]], p)
	}
	return acc[0]|acc[1]|acc[2] == 0
}

// Decode checks and corrects data and parity in place. The whole flit is
// uncorrectable as soon as any single way is uncorrectable; corrected counts
// accumulate across ways.
func (il *Interleaved) Decode(data, parity []byte) Result {
	il.checkLen(data, parity)
	if vectoredSyndromes && il.clean3x2(data, parity) {
		return Result{Status: StatusClean}
	}
	il.split(data, parity)
	total := Result{Status: StatusClean}
	for w, c := range il.codes {
		res := c.decode(il.deint[w], il.parity[w][:])
		switch res.Status {
		case StatusUncorrectable:
			return Result{Status: StatusUncorrectable}
		case StatusCorrected:
			total.Status = StatusCorrected
			total.Corrected += res.Corrected
		}
	}
	if total.Status == StatusCorrected {
		for w := range il.deint {
			for i, d := range il.deint[w] {
				data[i*ways+w] = d
			}
		}
		il.joinParity(parity)
	}
	return total
}

// Verify reports whether data||parity is a valid interleaved codeword via
// syndromes only — no correction attempt, no mutation.
func (il *Interleaved) Verify(data, parity []byte) bool {
	if !vectoredSyndromes {
		return il.VerifyReference(data, parity)
	}
	il.checkLen(data, parity)
	return il.clean3x2(data, parity)
}

// VerifyReference is Verify on the byte-level reference syndrome loop of
// every way, regardless of build tags. Differential suites use it as the
// pinned slow path; simulation code should call Verify.
func (il *Interleaved) VerifyReference(data, parity []byte) bool {
	il.checkLen(data, parity)
	il.split(data, parity)
	for w, c := range il.codes {
		if !c.VerifyReference(il.deint[w], il.parity[w][:]) {
			return false
		}
	}
	return true
}
