package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

// TestCounterGaugeRender pins the exposition format: HELP/TYPE headers,
// sorted families, canonical (sorted, escaped) labels, integer counters.
func TestCounterGaugeRender(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("zeta_total", "last family alphabetically", "outcome", "hit")
	c.Inc()
	c.Inc()
	c.Inc()
	r.Counter("zeta_total", "last family alphabetically", "outcome", "miss").Inc()
	r.GaugeFunc("alpha_depth", "first family", func() float64 { return 7.5 })
	r.GaugeFunc("alpha_depth", "first family", func() float64 { return 2 }, "kind", `quo"ted`)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()

	wantLines := []string{
		"# HELP alpha_depth first family",
		"# TYPE alpha_depth gauge",
		"alpha_depth 7.5",
		`alpha_depth{kind="quo\"ted"} 2`,
		"# TYPE zeta_total counter",
		`zeta_total{outcome="hit"} 3`,
		`zeta_total{outcome="miss"} 1`,
	}
	for _, w := range wantLines {
		if !strings.Contains(out, w) {
			t.Errorf("render missing %q in:\n%s", w, out)
		}
	}
	if strings.Index(out, "alpha_depth") > strings.Index(out, "zeta_total") {
		t.Error("families not sorted by name")
	}
}

// TestSeriesIdempotent pins get-or-create: asking for the same series
// twice returns one underlying value.
func TestSeriesIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "", "l", "v")
	b := r.Counter("x_total", "", "l", "v")
	if a != b {
		t.Fatal("same series returned distinct counters")
	}
	a.Inc()
	if b.Value() != 1 {
		t.Fatal("counter identity broken")
	}
	// Label order must not split series.
	h1 := r.Histogram("h_seconds", "", nil, "a", "1", "b", "2")
	h2 := r.Histogram("h_seconds", "", nil, "b", "2", "a", "1")
	if h1 != h2 {
		t.Fatal("label order split a histogram series")
	}
}

// TestTypeConflictPanics pins the fail-loudly contract for miswired
// families.
func TestTypeConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total", "")
	defer func() {
		if recover() == nil {
			t.Fatal("no panic registering c_total as a gauge")
		}
	}()
	r.GaugeFunc("c_total", "", func() float64 { return 0 })
}

// TestHistogramBuckets pins bucket assignment and the cumulative
// rendering against hand-checked samples.
func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "latency", []float64{0.001, 0.01, 0.1})
	for _, v := range []float64{0.0005, 0.001, 0.002, 0.05, 0.5, 2} {
		h.Observe(v)
	}
	// Buckets: le=0.001 gets {0.0005, 0.001} (bound is inclusive),
	// le=0.01 adds {0.002}, le=0.1 adds {0.05}, +Inf adds {0.5, 2}.
	samples, _, cum := scrape(t, r, "lat_seconds")
	wantCum := []uint64{2, 3, 4, 6}
	for i, w := range wantCum {
		if cum[i] != w {
			t.Errorf("cum[%d] = %d, want %d", i, cum[i], w)
		}
	}
	if sum := SumSamples(samples, "lat_seconds_sum"); math.Abs(sum-2.5535) > 1e-9 {
		t.Errorf("sum = %g, want 2.5535", sum)
	}

	var sb strings.Builder
	r.WritePrometheus(&sb)
	for _, w := range []string{
		`lat_seconds_bucket{le="0.001"} 2`,
		`lat_seconds_bucket{le="0.01"} 3`,
		`lat_seconds_bucket{le="0.1"} 4`,
		`lat_seconds_bucket{le="+Inf"} 6`,
		`lat_seconds_count 6`,
		"# TYPE lat_seconds histogram",
	} {
		if !strings.Contains(sb.String(), w) {
			t.Errorf("histogram render missing %q in:\n%s", w, sb.String())
		}
	}
}

// TestHistogramQuantile pins the interpolation math on a known shape:
// 100 samples uniform in (0, 0.1] over a 0.025/0.05/0.075/0.1 ladder.
func TestHistogramQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("q_seconds", "", []float64{0.025, 0.05, 0.075, 0.1})
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i) * 0.001) // 0.001..0.100, 25 per bucket
	}
	_, bounds, cum := scrape(t, r, "q_seconds")
	cases := []struct{ q, want float64 }{
		{0.5, 0.05},     // exactly the 50th sample's bucket edge
		{0.95, 0.095},   // 95th sample interpolates to 0.095
		{0.125, 0.0125}, // rank 12.5 of 25 in the first bucket
	}
	for _, c := range cases {
		got := CumulativeQuantile(bounds, cum, c.q)
		if math.Abs(got-c.want) > 1e-9 {
			t.Errorf("q%.3f = %g, want %g", c.q, got, c.want)
		}
	}
	// +Inf landings clamp to the top finite bound.
	h.Observe(5)
	for i := 0; i < 200; i++ {
		h.Observe(1)
	}
	_, bounds, cum = scrape(t, r, "q_seconds")
	if got := CumulativeQuantile(bounds, cum, 0.99); got != 0.1 {
		t.Errorf("quantile in +Inf bucket = %g, want clamp to 0.1", got)
	}
	// Empty histograms answer NaN, not garbage.
	r.Histogram("e_seconds", "", nil)
	if _, bounds, cum := scrape(t, r, "e_seconds"); !math.IsNaN(CumulativeQuantile(bounds, cum, 0.5)) {
		t.Error("empty histogram quantile not NaN")
	}
}

// scrape renders the registry and reads one histogram back the way a
// scraper does: parsed samples, finite bounds, cumulative counts.
func scrape(t *testing.T, r *Registry, name string) (samples []Sample, bounds []float64, cum []uint64) {
	t.Helper()
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	samples, err := ParsePrometheus(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	bounds, cum = RebuildHistogram(samples, name)
	return samples, bounds, cum
}

// TestRegistryConcurrency hammers counters and histograms from
// parallel writers while scrapes run — the -race contract for the whole
// registry: recording is atomic, rendering takes no lock the hot path
// shares.
func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("conc_total", "", "outcome", "hit")
	h := r.Histogram("conc_seconds", "", nil)
	r.GaugeFunc("conc_fn", "", func() float64 { return float64(c.Value()) })

	const writers, perWriter = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				c.Inc()
				h.Observe(float64(i%100) * 0.0001)
			}
		}(w)
	}
	// Concurrent scrapes while writers run.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			var sb strings.Builder
			if err := r.WritePrometheus(&sb); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	<-done

	if c.Value() != writers*perWriter {
		t.Errorf("counter = %d, want %d", c.Value(), writers*perWriter)
	}
	if _, _, cum := scrape(t, r, "conc_seconds"); cum[len(cum)-1] != writers*perWriter {
		t.Errorf("histogram count = %d, want %d", cum[len(cum)-1], writers*perWriter)
	}
}
