//go:build amd64 && !purego

package cpu

// cpuid executes the CPUID instruction with the given leaf (EAX) and
// subleaf (ECX). Implemented in cpuid_amd64.s.
func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

// detectionActive reports that this build really interrogates the CPU
// (as opposed to the purego/non-amd64 no-op detect).
const detectionActive = true

// CPUID leaf 1 ECX feature bits.
const (
	leaf1PCLMULQDQ = 1 << 1
	leaf1SSE41     = 1 << 19
)

func detect() {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 1 {
		return
	}
	_, _, ecx1, _ := cpuid(1, 0)
	X86.HasPCLMULQDQ = ecx1&leaf1PCLMULQDQ != 0
	X86.HasSSE41 = ecx1&leaf1SSE41 != 0
}
