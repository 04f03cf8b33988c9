// Package cpu detects the CPU features the coding kernels dispatch on.
//
// It is a deliberately tiny, stdlib-only stand-in for golang.org/x/sys/cpu:
// the simulator's hot byte-level kernels (internal/crc's PCLMULQDQ folding)
// select an implementation at package init based on the flags here, and the
// container image bakes in no external modules. It detects only the flags a
// kernel dispatches on; a wider kernel adds its flag together with the code
// that reads it. Detection runs the CPUID instruction directly (see
// cpuid_amd64.s); on non-amd64 architectures, or under the `purego` build
// tag, every flag is false and all kernels fall back to their portable
// table-driven reference implementations.
//
// The RXL_PUREGO environment variable (any non-empty value) clears every
// flag at startup, forcing the pure-Go reference kernels without a rebuild —
// the operational escape hatch documented in OPERATIONS.md, and the easiest
// way to A/B the dispatch on a live host.
package cpu

import "os"

// X86 reports the instruction-set extensions of the running amd64 CPU that
// the kernels care about. All fields are false on other architectures and
// under the purego build tag. The flags are written once during package
// initialization and only read afterwards.
var X86 struct {
	// HasPCLMULQDQ: carry-less multiply (the CRC-64 folding kernel).
	HasPCLMULQDQ bool
	// HasSSE41: SSE4.1 (PEXTRQ, used by the folding kernel's epilogue).
	HasSSE41 bool
}

func init() {
	detect()
	if os.Getenv("RXL_PUREGO") != "" {
		X86.HasPCLMULQDQ = false
		X86.HasSSE41 = false
	}
}
