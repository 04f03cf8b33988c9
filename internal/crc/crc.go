// Package crc implements the 64-bit CRC used by CXL/RXL flits, including
// the Implicit Sequence Number (ISN) variant at the heart of the paper.
//
// The polynomial is CRC-64/ECMA-182 (0x42F0E1EBA9EA3693), MSB-first, zero
// initial value and no final XOR. The paper relies only on generic 64-bit
// CRC properties — guaranteed detection of bursts up to 64 bits (any
// polynomial with a nonzero constant term) and a 2^-64 escape probability
// for arbitrary corruption — so any well-conditioned CRC-64 reproduces the
// evaluation.
//
// One path computes flit CRCs: Update, which dispatches at runtime (via
// CPUID, crc_clmul_amd64.go) to a PCLMULQDQ carry-less-multiply
// folding kernel in Go assembly (crc_amd64.s) where the CPU has it, and to
// the portable slicing-by-16 engine otherwise (16 precomputed 256-entry
// tables consume one 16-byte block per iteration with two independent
// 8-byte loads, so the table lookups of the two halves overlap in the
// pipeline). Building with -tags purego (or setting RXL_PUREGO) pins
// Update to slicing-by-16 — the only path on non-amd64 hosts and the
// pinned reference the kernel differential and fuzz suites compare the
// assembly against. UpdateBitwise is the bit-serial definition of the
// polynomial every table is derived from and checked against, and the
// slow leg of the bitwise/by16 floor (DESIGN.md §2).
//
// # ISN encoding
//
// ChecksumISN folds a 10-bit sequence number into the checksum by XORing it
// into the final two bytes of the message stream before CRC computation,
// exactly as Section 7.3 describes ("the 10-bit SeqNum is XORed with the
// lower 10 bits of the 240B payload"): the wire payload is unchanged, only
// the CRC sees the folded bytes. A receiver computing ChecksumISN with its
// expected sequence number gets a mismatch whenever either the payload or
// the sequence position differs — drop detection with zero header cost.
package crc

// Poly is the CRC-64/ECMA-182 generator polynomial in normal (MSB-first)
// representation. Its constant term is 1, which guarantees detection of all
// error bursts no longer than 64 bits.
const Poly uint64 = 0x42F0E1EBA9EA3693

// SeqBits is the width of the sequence number folded by ChecksumISN,
// matching the 10-bit FSN field of CXL 256B flits.
const SeqBits = 10

// SeqMask masks a sequence number to SeqBits.
const SeqMask uint16 = 1<<SeqBits - 1

var (
	table [256]uint64
	// sliceTbl[k][b] is the CRC of byte b followed by k zero bytes —
	// table-advanced k times. The slicing-by-16 engine uses all 16 rows,
	// its 8-byte tail step rows 0..7.
	sliceTbl [16][256]uint64
)

func init() {
	for b := 0; b < 256; b++ {
		crc := uint64(b) << 56
		for i := 0; i < 8; i++ {
			if crc&(1<<63) != 0 {
				crc = crc<<1 ^ Poly
			} else {
				crc <<= 1
			}
		}
		table[b] = crc
	}
	sliceTbl[0] = table
	for k := 1; k < len(sliceTbl); k++ {
		for b := 0; b < 256; b++ {
			prev := sliceTbl[k-1][b]
			sliceTbl[k][b] = table[byte(prev>>56)] ^ prev<<8
		}
	}
}

// clmulMin is the shortest input Update hands to the carry-less-multiply
// kernel. Below it the folding prologue/epilogue overhead rivals the table
// engine, and the dominant short inputs (ChecksumISN tails, sub-16-byte
// segments) stay on the slicing path anyway.
const clmulMin = 64

// Update processes data into the running CRC state and returns the new
// state. A zero state is a fresh checksum.
//
// Update is the dispatch point of the kernel layer: on amd64 hosts with
// carry-less multiply (and outside the purego build tag) inputs of at
// least clmulMin bytes fold through the PCLMULQDQ kernel in crc_amd64.s;
// everything else runs the portable slicing-by-16 engine. All engines are
// bit-identical by construction and pinned against each other by the
// differential and fuzz suites.
func Update(crc uint64, data []byte) uint64 {
	if hasCLMUL && len(data) >= clmulMin {
		return updateCLMUL(crc, data)
	}
	return UpdateSlicing16(crc, data)
}

// UsingCLMUL reports whether Update dispatches long inputs to the
// carry-less-multiply kernel on this host (amd64 with PCLMULQDQ+SSE4.1,
// not built with -tags purego, not disabled via RXL_PUREGO).
func UsingCLMUL() bool { return hasCLMUL }

// UpdateSlicing16 is the slicing-by-16 engine (one 8-byte step and
// byte-at-a-time tails): the portable hot path, the dispatch fallback, and
// the reference the CLMUL kernel is differentially pinned against.
func UpdateSlicing16(crc uint64, data []byte) uint64 {
	for len(data) >= 16 {
		// One 16-byte block per iteration: the running state folds into
		// the high half, and each half's eight table lookups depend only
		// on its own load, so the two streams overlap in the pipeline.
		hi := crc ^ (uint64(data[0])<<56 | uint64(data[1])<<48 | uint64(data[2])<<40 |
			uint64(data[3])<<32 | uint64(data[4])<<24 | uint64(data[5])<<16 |
			uint64(data[6])<<8 | uint64(data[7]))
		lo := uint64(data[8])<<56 | uint64(data[9])<<48 | uint64(data[10])<<40 |
			uint64(data[11])<<32 | uint64(data[12])<<24 | uint64(data[13])<<16 |
			uint64(data[14])<<8 | uint64(data[15])
		crc = sliceTbl[15][byte(hi>>56)] ^
			sliceTbl[14][byte(hi>>48)] ^
			sliceTbl[13][byte(hi>>40)] ^
			sliceTbl[12][byte(hi>>32)] ^
			sliceTbl[11][byte(hi>>24)] ^
			sliceTbl[10][byte(hi>>16)] ^
			sliceTbl[9][byte(hi>>8)] ^
			sliceTbl[8][byte(hi)] ^
			sliceTbl[7][byte(lo>>56)] ^
			sliceTbl[6][byte(lo>>48)] ^
			sliceTbl[5][byte(lo>>40)] ^
			sliceTbl[4][byte(lo>>32)] ^
			sliceTbl[3][byte(lo>>24)] ^
			sliceTbl[2][byte(lo>>16)] ^
			sliceTbl[1][byte(lo>>8)] ^
			sliceTbl[0][byte(lo)]
		data = data[16:]
	}
	if len(data) >= 8 {
		crc ^= uint64(data[0])<<56 | uint64(data[1])<<48 | uint64(data[2])<<40 |
			uint64(data[3])<<32 | uint64(data[4])<<24 | uint64(data[5])<<16 |
			uint64(data[6])<<8 | uint64(data[7])
		crc = sliceTbl[7][byte(crc>>56)] ^
			sliceTbl[6][byte(crc>>48)] ^
			sliceTbl[5][byte(crc>>40)] ^
			sliceTbl[4][byte(crc>>32)] ^
			sliceTbl[3][byte(crc>>24)] ^
			sliceTbl[2][byte(crc>>16)] ^
			sliceTbl[1][byte(crc>>8)] ^
			sliceTbl[0][byte(crc)]
		data = data[8:]
	}
	for _, b := range data {
		crc = table[byte(crc>>56)^b] ^ crc<<8
	}
	return crc
}

// foldReduce finishes the carry-less-multiply kernel: the 128-bit folding
// accumulator (hi·x^64 + lo) is congruent mod P to the whole processed
// stream, so the running CRC state is exactly the checksum of its 16 bytes
// taken big-endian — one slicing-by-16 table round, no Barrett constants.
func foldReduce(hi, lo uint64) uint64 {
	return sliceTbl[15][byte(hi>>56)] ^
		sliceTbl[14][byte(hi>>48)] ^
		sliceTbl[13][byte(hi>>40)] ^
		sliceTbl[12][byte(hi>>32)] ^
		sliceTbl[11][byte(hi>>24)] ^
		sliceTbl[10][byte(hi>>16)] ^
		sliceTbl[9][byte(hi>>8)] ^
		sliceTbl[8][byte(hi)] ^
		sliceTbl[7][byte(lo>>56)] ^
		sliceTbl[6][byte(lo>>48)] ^
		sliceTbl[5][byte(lo>>40)] ^
		sliceTbl[4][byte(lo>>32)] ^
		sliceTbl[3][byte(lo>>24)] ^
		sliceTbl[2][byte(lo>>16)] ^
		sliceTbl[1][byte(lo>>8)] ^
		sliceTbl[0][byte(lo)]
}

// UpdateBitwise is the bit-serial definition of the polynomial, the
// reference the table-driven engines are validated against.
func UpdateBitwise(crc uint64, data []byte) uint64 {
	for _, b := range data {
		crc ^= uint64(b) << 56
		for i := 0; i < 8; i++ {
			if crc&(1<<63) != 0 {
				crc = crc<<1 ^ Poly
			} else {
				crc <<= 1
			}
		}
	}
	return crc
}

// Checksum returns the CRC-64 of the concatenation of the given segments.
// Passing segments avoids assembling a contiguous flit image: the flit
// encoder checksums header and payload without copies.
func Checksum(segments ...[]byte) uint64 {
	var crc uint64
	for _, s := range segments {
		crc = Update(crc, s)
	}
	return crc
}

// ChecksumISN returns the ISN checksum: the CRC-64 of the concatenated
// segments with the (SeqBits)-bit sequence number XOR-folded into the final
// two bytes of the stream. The segments themselves are not modified.
//
// The fold places seq's low 8 bits in the last byte and bits 9:8 in the low
// bits of the second-to-last byte, so two checksums computed with different
// 10-bit sequence numbers over identical data always differ in their folded
// input — a sequence mismatch is exactly as detectable as a 2-byte-burst
// payload error, which a 64-bit CRC detects with certainty.
//
// The total length of the segments must be at least 2 bytes.
func ChecksumISN(seq uint16, segments ...[]byte) uint64 {
	seq &= SeqMask
	total := 0
	for _, s := range segments {
		total += len(s)
	}
	if total < 2 {
		panic("crc: ChecksumISN needs at least 2 bytes of message")
	}
	var crc uint64
	pos := 0
	for _, s := range segments {
		// Everything before stream position total-2 is untouched by the
		// fold: run it through the dispatched block engine. Only the
		// final two bytes of the stream go byte-at-a-time with the
		// sequence bits XORed in.
		clean := total - 2 - pos
		if clean > len(s) {
			clean = len(s)
		}
		if clean > 0 {
			crc = Update(crc, s[:clean])
		} else {
			clean = 0
		}
		for i := clean; i < len(s); i++ {
			b := s[i]
			switch pos + i {
			case total - 2:
				b ^= byte(seq >> 8) // bits 9:8 into second-to-last byte
			case total - 1:
				b ^= byte(seq) // bits 7:0 into last byte
			}
			crc = table[byte(crc>>56)^b] ^ crc<<8
		}
		pos += len(s)
	}
	return crc
}

// Verify reports whether sum is the CRC-64 of the concatenated segments —
// the byte-level half of the verify-skip contract: flits whose images are
// provably untouched since sealing (flit.Clean) answer the same question
// in O(1) and never reach this function on the fast path.
func Verify(sum uint64, segments ...[]byte) bool {
	return Checksum(segments...) == sum
}

// VerifyISN reports whether sum is the ISN checksum of the segments under
// seq. Two ISN checksums over identical data with different (SeqBits)-bit
// sequence numbers always differ: the fold is a 2-byte burst, which a
// 64-bit CRC detects with certainty. The fast path relies on exactly that
// property to replace this computation with a sequence comparison.
func VerifyISN(sum uint64, seq uint16, segments ...[]byte) bool {
	return ChecksumISN(seq, segments...) == sum
}
