//go:build amd64 && !purego

package crc

import (
	"os"
	"runtime"
	"strings"
	"testing"
)

// TestAgainstProcCPUInfo cross-checks the raw-CPUID dispatch decision
// against the kernel's own view on Linux. The flags /proc/cpuinfo
// advertises use lowercase underscore names (pclmulqdq, sse4_1).
func TestAgainstProcCPUInfo(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("cross-check needs /proc/cpuinfo")
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
	if want := kernel["pclmulqdq"] && kernel["sse4_1"]; UsingCLMUL() != want {
		t.Errorf("UsingCLMUL() = %v, /proc/cpuinfo pclmulqdq=%v sse4_1=%v",
			UsingCLMUL(), kernel["pclmulqdq"], kernel["sse4_1"])
	}
}
