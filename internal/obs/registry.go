// Package obs is the fleet observability layer: a stdlib-only metrics
// registry rendered in Prometheus text exposition format, and a
// cross-process span tracer keyed by propagated request IDs.
//
// Two design constraints shape everything here:
//
//   - The hot path must stay lock-cheap and allocation-free. Counter
//     and Histogram values are plain atomics; handles are created
//     once at wiring time, so recording is an atomic add with no map
//     lookups and no allocations. The registry handle is the counter's
//     only store: the serving code increments it and /v1/statsz reads its
//     Value, so the two surfaces cannot disagree. State that is not a
//     count (queue depth, cache footprint, a peer's routability) registers
//     as a GaugeFunc sampled only when a scrape happens.
//
//   - Observability must not perturb served bytes. Nothing in this
//     package touches result documents; /metrics and trace endpoints are
//     separate surfaces, and every byte-identity suite runs with them on.
//
// The registry speaks the Prometheus text format (counters, gauges, and
// fixed-bucket cumulative histograms with _bucket/_sum/_count series), so
// `GET /metrics` works with a real Prometheus scraper and with
// cmd/rxltop's built-in parser alike.
package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// DefLatencyBuckets is the default histogram bucket ladder for request
// latencies, in seconds: 100µs (a warm cache hit) up through 30s (a deep
// rare-event run), roughly 2.5x per step.
var DefLatencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30,
}

// Registry holds metric families and renders them as Prometheus text.
// Metric handles are created up front (Counter/Histogram) or
// registered as scrape-time callbacks (GaugeFunc); creation takes the
// registry lock, recording never does.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

// family is one metric name: shared HELP/TYPE plus its label series.
type family struct {
	name, help, typ string
	series          map[string]metric // canonical label string → metric
	order           []string          // registration order
}

// metric is anything a family can render: a value series or a histogram.
type metric interface {
	// write renders the series. name is the family name, labels the
	// canonical label string ("" or `{k="v",...}`).
	write(w *bufio.Writer, name, labels string)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

// labelString builds the canonical label rendering from name/value pairs,
// sorted by label name so the same logical series always has the same
// identity. Values are escaped per the exposition format.
func labelString(pairs []string) string {
	if len(pairs) == 0 {
		return ""
	}
	if len(pairs)%2 != 0 {
		panic("obs: label pairs must come in name, value pairs")
	}
	type kv struct{ k, v string }
	kvs := make([]kv, 0, len(pairs)/2)
	for i := 0; i < len(pairs); i += 2 {
		kvs = append(kvs, kv{pairs[i], pairs[i+1]})
	}
	sort.Slice(kvs, func(i, j int) bool { return kvs[i].k < kvs[j].k })
	var b strings.Builder
	b.WriteByte('{')
	for i, p := range kvs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(p.v))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabel escapes a label value per the text exposition format.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// register returns the family for name, creating it with the given type,
// and panics on a type conflict — families are wired once at startup, so
// a conflict is a programming error worth failing loudly on.
func (r *Registry) register(name, help, typ string) *family {
	f, ok := r.fams[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ, series: make(map[string]metric)}
		r.fams[name] = f
		return f
	}
	if f.typ != typ {
		panic(fmt.Sprintf("obs: metric %q registered as %s and %s", name, f.typ, typ))
	}
	return f
}

// getOrAdd installs m under the label set unless a series already exists,
// returning the resident metric either way (create is idempotent).
func (f *family) getOrAdd(labels string, m metric) metric {
	if ex, ok := f.series[labels]; ok {
		return ex
	}
	f.series[labels] = m
	f.order = append(f.order, labels)
	return m
}

// Counter is a monotonically increasing value. Inc/Add are single atomic
// operations — safe and cheap on any path.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

func (c *Counter) write(w *bufio.Writer, name, labels string) {
	fmt.Fprintf(w, "%s%s %d\n", name, labels, c.v.Load())
}

// Counter returns (creating if needed) the counter series for name and
// the given label name/value pairs.
func (r *Registry) Counter(name, help string, labelPairs ...string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.register(name, help, "counter")
	return f.getOrAdd(labelString(labelPairs), &Counter{}).(*Counter)
}

// funcMetric samples a callback at scrape time — the bridge for state
// that lives under someone else's lock (queue depths, cache footprint).
// The callback must be safe to call from the scrape goroutine.
type funcMetric struct {
	fn func() float64
}

func (m funcMetric) write(w *bufio.Writer, name, labels string) {
	fmt.Fprintf(w, "%s%s %s\n", name, labels, formatFloat(m.fn()))
}

// GaugeFunc registers a gauge whose value is fn() at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labelPairs ...string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.register(name, help, "gauge")
	f.getOrAdd(labelString(labelPairs), funcMetric{fn})
}

// WritePrometheus renders every family in the text exposition format,
// sorted by family name for stable scrapes.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.fams))
	for n := range r.fams {
		names = append(names, n)
	}
	sort.Strings(names)
	fams := make([]*family, 0, len(names))
	for _, n := range names {
		fams = append(fams, r.fams[n])
	}
	r.mu.Unlock()

	bw := bufio.NewWriter(w)
	for _, f := range fams {
		if f.help != "" {
			fmt.Fprintf(bw, "# HELP %s %s\n", f.name, f.help)
		}
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.typ)
		// Series creation happens at wiring time, never during a render,
		// so reading order without the registry lock is safe: the family
		// pointer was published before any scrape could reach it.
		for _, labels := range f.order {
			f.series[labels].write(bw, f.name, labels)
		}
	}
	return bw.Flush()
}

// Handler returns the GET /metrics endpoint.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
}

// formatFloat renders a float the way the exposition format expects.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
