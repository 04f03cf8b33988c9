package cpu

import (
	"os"
	"runtime"
	"strings"
	"testing"
)

// TestFlagsConsistent checks the invariants the dispatch layer relies on,
// without assuming anything about the host: flags are always false off
// amd64, and RXL_PUREGO force-clears everything.
func TestFlagsConsistent(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		if X86.HasPCLMULQDQ || X86.HasSSE41 {
			t.Fatalf("non-amd64 host reports x86 features: %+v", X86)
		}
		return
	}
	if os.Getenv("RXL_PUREGO") != "" {
		if X86.HasPCLMULQDQ || X86.HasSSE41 {
			t.Fatalf("RXL_PUREGO set but features survived: %+v", X86)
		}
	}
	t.Logf("detected: %+v", X86)
}

// TestAgainstProcCPUInfo cross-checks our raw-CPUID detection against the
// kernel's own view on Linux/amd64. The flags /proc/cpuinfo advertises use
// lowercase underscore names (pclmulqdq, sse4_1).
func TestAgainstProcCPUInfo(t *testing.T) {
	if runtime.GOOS != "linux" || runtime.GOARCH != "amd64" || !detectionActive {
		t.Skip("cross-check needs linux/amd64 /proc/cpuinfo and active detection")
	}
	if os.Getenv("RXL_PUREGO") != "" {
		t.Skip("RXL_PUREGO overrides detection")
	}
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("cannot read /proc/cpuinfo: %v", err)
	}
	var flagsLine string
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(line, "flags") {
			flagsLine = line
			break
		}
	}
	if flagsLine == "" {
		t.Skip("/proc/cpuinfo has no flags line")
	}
	kernel := map[string]bool{}
	for _, f := range strings.Fields(flagsLine) {
		kernel[f] = true
	}
	checks := []struct {
		name string
		ours bool
	}{
		{"pclmulqdq", X86.HasPCLMULQDQ},
		{"sse4_1", X86.HasSSE41},
	}
	for _, c := range checks {
		if c.ours != kernel[c.name] {
			t.Errorf("%s: cpuid says %v, /proc/cpuinfo says %v", c.name, c.ours, kernel[c.name])
		}
	}
}
