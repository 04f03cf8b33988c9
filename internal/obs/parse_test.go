package obs

import (
	"math"
	"strings"
	"testing"
)

// TestParseRoundTrip pins that ParsePrometheus inverts WritePrometheus:
// a scraper reading a registry's own render recovers every value,
// including label escapes and histogram parts.
func TestParseRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("jobs_total", "", "outcome", "hit").Add(7)
	r.Counter("jobs_total", "", "outcome", `we"ird`).Add(2)
	r.GaugeFunc("depth", "", func() float64 { return 3.5 })
	h := r.Histogram("lat_seconds", "", []float64{0.01, 0.1})
	h.Observe(0.005)
	h.Observe(0.05)
	h.Observe(5)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	samples, err := ParsePrometheus(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}

	if got := SumSamples(samples, "jobs_total"); got != 9 {
		t.Errorf("jobs_total sum = %g, want 9", got)
	}
	if got := SumSamples(samples, "jobs_total", "outcome", `we"ird`); got != 2 {
		t.Errorf("escaped-label series = %g, want 2", got)
	}
	if got := SumSamples(samples, "depth"); got != 3.5 {
		t.Errorf("depth = %g, want 3.5", got)
	}

	bounds, cum := RebuildHistogram(samples, "lat_seconds")
	if len(bounds) != 2 || bounds[0] != 0.01 || bounds[1] != 0.1 {
		t.Fatalf("rebuilt bounds = %v", bounds)
	}
	wantCum := []uint64{1, 2, 3}
	for i, w := range wantCum {
		if cum[i] != w {
			t.Fatalf("rebuilt cum = %v, want %v", cum, wantCum)
		}
	}
	// Quantiles work on the rebuilt shape.
	if q := CumulativeQuantile(bounds, cum, 0.5); math.Abs(q-0.055) > 1e-9 {
		t.Errorf("rebuilt q50 = %g, want 0.055", q)
	}
}

// TestParseRejectsGarbage pins the fail-loudly contract for scrapes of
// something that is not an exposition endpoint.
func TestParseRejectsGarbage(t *testing.T) {
	for _, bad := range []string{
		"<html>not metrics</html>",
		"name_without_value",
		`broken{le="0.1" 3`,
	} {
		if _, err := ParsePrometheus(strings.NewReader(bad)); err == nil {
			t.Errorf("ParsePrometheus(%q) accepted garbage", bad)
		}
	}
}

// TestParseMissingHistogram pins RebuildHistogram's nil answer when the
// family is absent or lacks its +Inf bucket.
func TestParseMissingHistogram(t *testing.T) {
	samples, err := ParsePrometheus(strings.NewReader(`other_bucket{le="0.1"} 2` + "\n"))
	if err != nil {
		t.Fatal(err)
	}
	if b, c := RebuildHistogram(samples, "lat_seconds"); b != nil || c != nil {
		t.Error("absent family rebuilt non-nil")
	}
	if b, c := RebuildHistogram(samples, "other"); b != nil || c != nil {
		t.Error("family without +Inf rebuilt non-nil")
	}
}
