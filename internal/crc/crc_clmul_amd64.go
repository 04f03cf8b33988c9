//go:build amd64 && !purego

package crc

import "os"

// hasCLMUL gates Update's dispatch to the PCLMULQDQ folding kernel. It is
// computed once, from CPUID leaf 1: PCLMULQDQ for the folds, and SSE4.1 for
// the epilogue's PEXTRQ (every CPU shipping PCLMULQDQ has it, but the
// dispatch checks anyway so the pairing is explicit). The RXL_PUREGO
// environment variable (any non-empty value) clears it, forcing the
// slicing-by-16 engine without a rebuild.
var hasCLMUL = detectCLMUL() && os.Getenv("RXL_PUREGO") == ""

// cpuid executes the CPUID instruction with the given leaf (EAX) and
// subleaf (ECX). Implemented in cpuid_amd64.s.
func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

// CPUID leaf 1 ECX feature bits.
const (
	leaf1PCLMULQDQ = 1 << 1
	leaf1SSE41     = 1 << 19
)

func detectCLMUL() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 1 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	return ecx1&leaf1PCLMULQDQ != 0 && ecx1&leaf1SSE41 != 0
}

// clmulBlocks is implemented in crc_amd64.s. It folds n bytes at p
// (n ≥ 16, n%16 == 0) into a 128-bit accumulator congruent mod P to the
// byte stream with crc prepended.
//
//go:noescape
func clmulBlocks(crc uint64, p *byte, n int) (hi, lo uint64)

// updateCLMUL is the asm-backed engine behind Update: fold all whole
// 16-byte blocks with carry-less multiplies, reduce the accumulator with
// one table round, and finish the sub-block tail byte-at-a-time.
func updateCLMUL(crc uint64, data []byte) uint64 {
	blocks := len(data) &^ 15
	hi, lo := clmulBlocks(crc, &data[0], blocks)
	crc = foldReduce(hi, lo)
	for _, b := range data[blocks:] {
		crc = table[byte(crc>>56)^b] ^ crc<<8
	}
	return crc
}
