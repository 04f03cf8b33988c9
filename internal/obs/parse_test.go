package obs

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestParseRoundTrip pins that ParsePrometheus inverts WritePrometheus:
// a scraper reading a registry's own render recovers every value,
// including label escapes and histogram parts.
func TestParseRoundTrip(t *testing.T) {
	r := NewRegistry()
	hit, weird := r.Counter("jobs_total", "", "outcome", "hit"), r.Counter("jobs_total", "", "outcome", `we"ird`)
	for i := 0; i < 7; i++ {
		hit.Inc()
	}
	weird.Inc()
	weird.Inc()
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

// checkParse is the parser's boundary contract, shared by the fuzz
// target and the oversized-line test: ParsePrometheus never panics; an
// input with any malformed line is an error with no samples at all,
// never the lines that happened to parse; and whatever it accepts is
// something a Registry can render and ParsePrometheus reads back
// unchanged (first occurrence wins where the input repeats a series,
// as in a registry).
func checkParse(t *testing.T, data []byte) error {
	samples, err := ParsePrometheus(bytes.NewReader(data))
	if err != nil {
		if samples != nil {
			t.Fatalf("error %v came with %d samples", err, len(samples))
		}
		return err
	}
	lines := 0
	for _, line := range strings.Split(string(data), "\n") {
		if line = strings.TrimSpace(line); line != "" && !strings.HasPrefix(line, "#") {
			lines++
		}
	}
	if len(samples) != lines {
		t.Fatalf("%d samples from %d sample lines", len(samples), lines)
	}

	pairsOf := func(s Sample) (pairs []string) {
		for k, v := range s.Labels {
			pairs = append(pairs, k, v)
		}
		return pairs
	}
	seriesKey := func(s Sample) string { return s.Name + labelString(pairsOf(s)) }
	want := map[string]float64{}
	reg := NewRegistry()
	for _, s := range samples {
		key := seriesKey(s)
		if _, dup := want[key]; dup {
			continue
		}
		want[key] = s.Value
		reg.GaugeFunc(s.Name, "", func() float64 { return s.Value }, pairsOf(s)...)
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	back, err := ParsePrometheus(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("registry render of accepted input does not parse: %v\n%s", err, sb.String())
	}
	if len(back) != len(want) {
		t.Fatalf("round trip: %d series in, %d out\n%s", len(want), len(back), sb.String())
	}
	for _, s := range back {
		w, ok := want[seriesKey(s)]
		if !ok || !(s.Value == w || math.IsNaN(s.Value) && math.IsNaN(w)) {
			t.Fatalf("round trip: series %s = %g, want %g (present %v)", seriesKey(s), s.Value, w, ok)
		}
	}
	return nil
}

// FuzzParsePrometheus holds the boundary cmd/rxltop and the fleet
// surface tests read /metrics through. The committed corpus
// (testdata/fuzz/FuzzParsePrometheus) is a real scrape of a daemon and
// of a fleet front, a histogram family, NaN/Inf values, and the
// malformed shapes: unterminated labels, bad escapes, bad names.
func FuzzParsePrometheus(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) { checkParse(t, data) })
}

// TestFuzzCorpusVerdicts pins what the committed corpus is for: every
// valid-* seed parses to at least one sample, every bad-* seed — each a
// good line followed by one malformed line — is an error.
func TestFuzzCorpusVerdicts(t *testing.T) {
	const dir = "testdata/fuzz/FuzzParsePrometheus"
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		// A go-fuzz v1 seed: a version line, then one []byte("…") argument.
		_, arg, _ := strings.Cut(strings.TrimSpace(string(raw)), "\n")
		body, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(arg, "[]byte("), ")"))
		if err != nil {
			t.Fatalf("%s: not a one-argument []byte seed: %v", e.Name(), err)
		}
		samples, err := ParsePrometheus(strings.NewReader(body))
		switch {
		case strings.HasPrefix(e.Name(), "valid-"):
			if err != nil || len(samples) == 0 {
				t.Errorf("%s: %d samples, error %v", e.Name(), len(samples), err)
			}
		case strings.HasPrefix(e.Name(), "bad-"):
			if err == nil {
				t.Errorf("%s: accepted as %v", e.Name(), samples)
			}
		default:
			t.Errorf("%s: corpus seeds are named valid-* or bad-*", e.Name())
		}
	}
}

// TestParseOversizedLine: a line past the scanner's 4 MiB cap is an
// error — not a truncated sample, and not the lines before it.
func TestParseOversizedLine(t *testing.T) {
	data := []byte("ok_before 1\nbig{l=\"" + strings.Repeat("x", 4<<20) + "\"} 1\n")
	if checkParse(t, data) == nil {
		t.Fatal("a line over the scanner cap parsed")
	}
}
