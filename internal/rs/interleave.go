package rs

import "fmt"

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
	il := &Interleaved{total: total, ways: ways, nparity: nparity}
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
	il.deinterleave(data)
	for w, c := range il.codes {
		c.Encode(il.deint[w], il.parity[w])
	}
	for x := range parity {
		parity[x] = il.parity[il.parityWay[x]][il.parityIdx[x]]
	}
}

// Decode checks and corrects data and parity in place. The whole flit is
// uncorrectable as soon as any single way is uncorrectable; corrected counts
// accumulate across ways.
func (il *Interleaved) Decode(data, parity []byte) Result {
	if len(data) != il.total || len(parity) != il.ParityLen() {
		panic("rs: interleaved Decode length mismatch")
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
