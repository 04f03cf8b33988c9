// Command bench is the repository's benchmark: six workloads over the
// simulator (core scenario cells), the Monte-Carlo estimators
// (reliability) and the serving stack (service, fleet), each measured end
// to end with tracing off and, in a second traced run, layer by layer.
//
// Two ways in:
//
//	bench/run.sh                       all workloads, untraced then traced,
//	                                   a table and bench/out/result.json
//	bench/run.sh --workload W --seed N --seconds S --trace 0|1
//	                                   one run; the last stdout line is the
//	                                   result as one JSON object
//
// See README.md for every metric, workload and the run protocol.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
)

// env is what one run of one workload is given.
type env struct {
	seed    uint64
	seconds float64
	scale   float64
	outDir  string
	hooks   hooks
}

// hooks let bench_test.go inject failures; both are nil in real runs.
type hooks struct {
	// meshResult may damage a cell's result before it is checked.
	meshResult func(*core.ScenarioResult)
	// handler wraps the HTTP handler the clients talk to.
	handler func(http.Handler) http.Handler
}

// scaled multiplies a workload size by -scale, keeping it at least min.
func (e *env) scaled(n, min int) int {
	v := int(float64(n)*e.scale + 0.5)
	if v < min {
		return min
	}
	return v
}

// checks counts the output checks a run made and the ones that failed.
type checks struct {
	attempted, failed int
	notes             []string
}

// check records one output check; a failed one keeps its description.
func (c *checks) check(ok bool, format string, args ...any) {
	c.attempted++
	if !ok {
		c.failed++
		if len(c.notes) < 8 {
			c.notes = append(c.notes, fmt.Sprintf(format, args...))
		}
	}
}

// opStat is one timed operation: a scenario cell, a rare sweep, or a
// block of requests.
type opStat struct {
	units float64 // work done: flits, trials or requests
	dur   time.Duration
	// samples are named measurements taken inside the operation: span
	// durations of the traced variant, per-request latencies.
	samples map[string][]float64
}

func (o *opStat) sample(name string, v float64) {
	if o.samples == nil {
		o.samples = map[string][]float64{}
	}
	o.samples[name] = append(o.samples[name], v)
}

// pooled gathers one named sample across operations.
func pooled(ops []opStat, name string) []float64 {
	var out []float64
	for _, o := range ops {
		out = append(out, o.samples[name]...)
	}
	return out
}

// workload is one of the six benchmark workloads.
type workload interface {
	// setup derives the inputs from the seed, boots what serves them,
	// primes caches and runs one warm-up operation: everything a user
	// waits for before steady state.
	setup() error
	// op runs the i-th operation; a non-nil recorder selects the traced
	// variant, which must compute the same result.
	op(i int, rec *recorder) (opStat, error)
	// latenciesMS are the user-visible completion times of the
	// operations, in milliseconds.
	latenciesMS(ops []opStat) []float64
	// verify runs the output checks that are not made inline.
	verify() error
	// layer reports the workload's own per-layer metrics from an
	// untraced and a traced phase over the same operations.
	layer(untraced, traced []opStat, probes map[string]float64) map[string]float64
	close()
}

// newWorkload builds the named workload.
func newWorkload(name string, e *env, c *checks) (workload, error) {
	switch name {
	case "mesh_clean", "mesh_storm", "mesh_bytelevel":
		return newMesh(name, e, c), nil
	case "mc_rare":
		return newMC(e, c), nil
	case "serve_mix":
		return newServe(false, e, c), nil
	case "fleet_mix":
		return newServe(true, e, c), nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// measure runs operations from index 0 until the window is used up. With
// a recorder every operation runs twice, untraced then traced, so the two
// variants of the same work are measured next to each other in time and
// their ratio is the cost of tracing, not the host's drift.
//
// Every operation starts from a collected heap, so operations are
// independent measurements and the heap's high-water mark does not hinge
// on where the previous one left the collector.
func measure(w workload, window float64, rec *recorder) (untraced, traced []opStat, err error) {
	start := time.Now()
	for i := 0; i == 0 || time.Since(start).Seconds() < window; i++ {
		runtime.GC()
		st, err := w.op(i, nil)
		if err != nil {
			return nil, nil, err
		}
		untraced = append(untraced, st)
		if rec == nil {
			continue
		}
		runtime.GC()
		if st, err = w.op(i, rec); err != nil {
			return nil, nil, fmt.Errorf("traced: %w", err)
		}
		traced = append(traced, st)
	}
	return untraced, traced, nil
}

// durationsMS is each operation's wall time in milliseconds.
func durationsMS(ops []opStat) []float64 {
	out := make([]float64, len(ops))
	for i, o := range ops {
		out[i] = o.dur.Seconds() * 1e3
	}
	return out
}

// throughputs is each operation's work per second.
func throughputs(ops []opStat) []float64 {
	out := make([]float64, len(ops))
	for i, o := range ops {
		out[i] = o.units / o.dur.Seconds()
	}
	return out
}

// runSeconds is the measuring window the driver gives one run
// (BENCHMARK.json's run_seconds).
const runSeconds = 12

// setupRuns is how many times an untraced run sets up; setup_s is the
// median, so one slow boot does not decide it.
const setupRuns = 3

// result is what one run reports: the contract's last stdout line.
type result struct {
	Correct   bool                `json:"correct"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Metrics   map[string]reported `json:"metrics"`
	notes     []string            // descriptions of failed checks
	traceFile string              // where a traced run wrote its spans
}

type reported struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runUntraced measures the end-to-end metrics of one workload.
func runUntraced(name string, e *env) (result, error) {
	c := &checks{}
	var w workload
	var setups []float64
	for i := 0; i < setupRuns; i++ {
		if w != nil {
			w.close()
		}
		var err error
		if w, err = newWorkload(name, e, c); err != nil {
			return result{}, err
		}
		t0 := time.Now()
		if err := w.setup(); err != nil {
			w.close()
			return result{}, fmt.Errorf("%s: setup: %w", name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer w.close()
	ops, _, err := measure(w, e.seconds, nil)
	if err != nil {
		return result{}, fmt.Errorf("%s: %w", name, err)
	}
	if err := w.verify(); err != nil {
		return result{}, fmt.Errorf("%s: verify: %w", name, err)
	}
	rss, err := peakRSSMB()
	if err != nil {
		return result{}, err
	}
	return report(c, endToEnd, map[string]float64{
		"setup_s":     median(setups),
		"ops_per_s":   median(throughputs(ops)),
		"op_p50_ms":   median(w.latenciesMS(ops)),
		"peak_rss_mb": rss,
	}), nil
}

// runTraced measures the per-layer metrics: every operation of the window
// untraced and traced, then the layer probes. The spans go to
// <out>/trace_<workload>.json.
func runTraced(name string, e *env) (result, error) {
	c := &checks{}
	w, err := newWorkload(name, e, c)
	if err != nil {
		return result{}, err
	}
	defer w.close()
	if err := w.setup(); err != nil {
		return result{}, fmt.Errorf("%s: setup: %w", name, err)
	}
	rec := newRecorder(name)
	untraced, traced, err := measure(w, e.seconds, rec)
	if err != nil {
		return result{}, fmt.Errorf("%s: %w", name, err)
	}
	if err := w.verify(); err != nil {
		return result{}, fmt.Errorf("%s: verify: %w", name, err)
	}
	probes, err := runProbes(e)
	if err != nil {
		return result{}, fmt.Errorf("probes: %w", err)
	}
	vals := w.layer(untraced, traced, probes)
	for k, v := range probes {
		vals[k] = v
	}
	var over []float64
	for i := range traced {
		over = append(over, 100*(traced[i].dur.Seconds()/untraced[i].dur.Seconds()-1))
	}
	vals["bench.trace_overhead_pct"] = median(over)
	vals["bench.rep_spread_pct"] = 100 * spread(throughputs(untraced))
	if _, ok := vals["bench.residual_share"]; !ok {
		vals["bench.residual_share"] = 1 // no kernel/engine model off the mesh workloads
	}
	vals["fail_ratio"] = float64(c.failed) / float64(max(c.attempted, 1))
	if err := os.MkdirAll(e.outDir, 0o755); err != nil {
		return result{}, err
	}
	r := report(c, perLayer, vals)
	r.traceFile = filepath.Join(e.outDir, "trace_"+name+".json")
	return r, rec.write(r.traceFile)
}

// report renders every declared metric; one not measured on this
// workload reads 0.
func report(c *checks, decls []metric, vals map[string]float64) result {
	r := result{
		Correct:   c.failed == 0,
		Attempted: max(c.attempted, 1),
		Failed:    c.failed,
		Metrics:   make(map[string]reported, len(decls)),
		notes:     c.notes,
	}
	for _, m := range decls {
		r.Metrics[m.name] = reported{Value: vals[m.name], Unit: m.unit}
	}
	return r
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// runOne is the contract entry: one workload, one run, the result as the
// last stdout line. The exit code is 1 when an output check failed.
func runOne(name string, e *env, trace bool) int {
	run := runUntraced
	if trace {
		run = runTraced
	}
	r, err := run(name, e)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	for _, n := range r.notes {
		fmt.Fprintln(os.Stderr, "bench: failed check:", n)
	}
	b, err := json.Marshal(r)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	fmt.Println(string(b))
	if !r.Correct {
		return 1
	}
	return 0
}

func main() {
	var (
		wl       = flag.String("workload", "", "run one workload and print its result as the last line (default: the whole suite)")
		seed     = flag.Uint64("seed", 1, "input seed; 2 is the held-out validation seed")
		seconds  = flag.Float64("seconds", runSeconds, "measuring window of one run")
		trace    = flag.Int("trace", 0, "with -workload: 0 = end-to-end metrics, 1 = traced run with per-layer metrics")
		scale    = flag.Float64("scale", 1, "multiplies every workload size (smoke runs)")
		out      = flag.String("out", "bench/out", "directory for result.json and trace files")
		repeat   = flag.Int("repeat", 1, "suite: run this many full sets and report their agreement")
		compare  = flag.Bool("compare", false, "compare two result files: -compare parent.json change.json")
		manifest = flag.Bool("manifest", false, "print BENCHMARK.json and exit")
	)
	flag.Parse()
	// Two cores at most: the load generator and the system share them,
	// and figures from hosts with more cores stay comparable.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))

	e := &env{seed: *seed, seconds: *seconds, scale: *scale, outDir: *out}
	switch {
	case *manifest:
		fmt.Println(manifestJSON())
	case *compare:
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare needs two result files")
			os.Exit(2)
		}
		os.Exit(compareFiles(flag.Arg(0), flag.Arg(1)))
	case *wl != "":
		os.Exit(runOne(*wl, e, *trace != 0))
	default:
		os.Exit(runSuite(e, *repeat))
	}
}
