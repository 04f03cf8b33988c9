package obs

import (
	"bufio"
	"fmt"
	"math"
	"sort"
	"sync/atomic"
)

// Histogram is a fixed-bucket histogram: per-bucket atomic counters plus
// an atomic sum. Observe is allocation-free — a binary search over the
// (immutable) bounds and two atomic updates — so it is safe on the
// request hot path. Buckets are stored per-bucket internally and
// rendered cumulatively, as the exposition format requires.
type Histogram struct {
	bounds  []float64 // ascending upper bounds; +Inf is implicit
	buckets []atomic.Uint64
	sumBits atomic.Uint64

	// leLabels are the pre-rendered per-bucket label strings (the series
	// labels with le spliced in), computed once at creation so a scrape
	// allocates nothing per bucket either.
	leLabels []string
}

// Histogram returns (creating if needed) the histogram series for name
// and labels. bounds must be ascending; nil selects DefLatencyBuckets.
func (r *Registry) Histogram(name, help string, bounds []float64, labelPairs ...string) *Histogram {
	if bounds == nil {
		bounds = DefLatencyBuckets
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram %q bounds not ascending", name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.register(name, help, "histogram")
	labels := labelString(labelPairs)
	if ex, ok := f.series[labels]; ok {
		return ex.(*Histogram)
	}
	h := &Histogram{
		bounds:   bounds,
		buckets:  make([]atomic.Uint64, len(bounds)+1),
		leLabels: make([]string, len(bounds)+1),
	}
	for i, b := range bounds {
		h.leLabels[i] = spliceLE(labels, formatFloat(b))
	}
	h.leLabels[len(bounds)] = spliceLE(labels, "+Inf")
	f.getOrAdd(labels, h)
	return h
}

// spliceLE adds the le label to a canonical label string.
func spliceLE(labels, le string) string {
	if labels == "" {
		return `{le="` + le + `"}`
	}
	return labels[:len(labels)-1] + `,le="` + le + `"}`
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v: its bucket
	h.buckets[i].Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// CumulativeQuantile estimates the q-quantile (0 < q < 1) over cumulative
// bucket counts aligned with bounds (the last count is the +Inf bucket),
// with linear interpolation inside the landing bucket — the same estimate
// Prometheus's histogram_quantile computes, for scrapers (rxltop) that
// reconstruct histograms from parsed _bucket series. Samples in the +Inf
// bucket clamp to the highest finite bound; an empty histogram gives NaN.
func CumulativeQuantile(bounds []float64, cum []uint64, q float64) float64 {
	if len(cum) == 0 || cum[len(cum)-1] == 0 || math.IsNaN(q) {
		return math.NaN()
	}
	total := cum[len(cum)-1]
	rank := q * float64(total)
	i := sort.Search(len(cum), func(i int) bool { return float64(cum[i]) >= rank })
	if i >= len(bounds) {
		// Landed in +Inf: the histogram can only say "past the ladder".
		if len(bounds) == 0 {
			return math.NaN()
		}
		return bounds[len(bounds)-1]
	}
	lower := 0.0
	var prev uint64
	if i > 0 {
		lower = bounds[i-1]
		prev = cum[i-1]
	}
	upper := bounds[i]
	inBucket := cum[i] - prev
	if inBucket == 0 {
		return upper
	}
	return lower + (upper-lower)*(rank-float64(prev))/float64(inBucket)
}

func (h *Histogram) write(w *bufio.Writer, name, labels string) {
	var cum uint64
	for i := range h.buckets {
		cum += h.buckets[i].Load()
		fmt.Fprintf(w, "%s_bucket%s %d\n", name, h.leLabels[i], cum)
	}
	fmt.Fprintf(w, "%s_sum%s %s\n", name, labels, formatFloat(math.Float64frombits(h.sumBits.Load())))
	// _count is the +Inf cumulative from this same pass, so one render is
	// always internally consistent even while observers are landing.
	fmt.Fprintf(w, "%s_count%s %d\n", name, labels, cum)
}
