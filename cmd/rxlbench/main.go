// Command rxlbench is a closed-loop load generator for a running rxld
// daemon or fleet: N concurrent clients hammer POST /v1/jobs with a
// configurable mix of repeated (cache-hittable) and unique
// (must-compute) jobs, and the tool reports request throughput,
// p50/p95/p99 latency split by cache outcome, and the daemon's own
// statsz counters.
//
// Usage:
//
//	rxlbench -addr http://127.0.0.1:8080 [-duration 10s] [-concurrency 16]
//	         [-repeat 0.9] [-hot 4] [-kind grid] [-n 2000] [-flits 1000000]
//	         [-dist uniform|zipf] [-zipf-s 1.2] [-fleet URL,URL,...] [-seed 1]
//	         [-json]
//
// The hot set (-hot distinct configs) is primed once before timing
// starts, so the repeated fraction measures pure cache-hit serving. With
// -repeat 1 the run is a cache-only stress test; with -repeat 0 every
// request computes. Unique jobs vary only the pool seed, so they cost
// one full engine run each — the honest "requests served per second"
// number for the README comes from the mixed default.
//
// Fleet benchmarking: -dist zipf draws hot-set members with the skewed
// popularity real caches see (rank-1 config dominates), and -fleet
// routes each request client-side over the same consistent-hash ring
// the daemons use — measuring pure daemon scale-out with no front hop.
// -json appends a single machine-readable "RESULT {...}" line for
// scripts.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/link"
	"repro/internal/service"
)

type options struct {
	addr        string
	fleetCSV    string
	duration    time.Duration
	concurrency int
	repeat      float64
	hot         int
	dist        string
	zipfS       float64
	kind        string
	n           int
	flits       int
	seed        uint64
	jsonOut     bool
}

func main() {
	var opt options
	flag.StringVar(&opt.addr, "addr", "http://127.0.0.1:8080", "rxld base URL (daemon or front)")
	flag.StringVar(&opt.fleetCSV, "fleet", "", "comma-separated daemon URLs: route client-side over the fleet ring instead of -addr")
	flag.DurationVar(&opt.duration, "duration", 10*time.Second, "measurement window")
	flag.IntVar(&opt.concurrency, "concurrency", 16, "closed-loop client count")
	flag.Float64Var(&opt.repeat, "repeat", 0.9, "fraction of requests drawn from the hot (repeated) config set")
	flag.IntVar(&opt.hot, "hot", 4, "distinct configs in the hot set")
	flag.StringVar(&opt.dist, "dist", "uniform", "hot-set popularity: uniform or zipf")
	flag.Float64Var(&opt.zipfS, "zipf-s", 1.2, "zipf skew exponent (>1; larger = more skewed)")
	flag.StringVar(&opt.kind, "kind", "grid", "job kind: grid or sweep")
	flag.IntVar(&opt.n, "n", 2000, "payloads per grid cell (grid kind)")
	flag.IntVar(&opt.flits, "flits", 1_000_000, "flit budget per point (sweep kind)")
	flag.Uint64Var(&opt.seed, "seed", 1, "base seed of the hot set")
	flag.BoolVar(&opt.jsonOut, "json", false, "append a machine-readable RESULT line")
	flag.Parse()

	if err := run(opt, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// spec builds the job for a given seed slot.
func (o options) spec(seed uint64) (service.JobSpec, error) {
	switch o.kind {
	case "grid":
		return service.JobSpec{
			Kind: service.KindGrid,
			Seed: seed,
			Grid: &core.Grid{
				Base: core.Config{Protocol: link.ProtocolRXL, Levels: 1, BER: 1e-6, BurstProb: 0.4, Seed: 7},
				N:    o.n,
			},
		}, nil
	case "sweep":
		return service.JobSpec{
			Kind:  service.KindSweep,
			Seed:  seed,
			Sweep: &service.SweepSpec{BERs: []float64{1e-6}, FlitsPerPoint: o.flits},
		}, nil
	default:
		return service.JobSpec{}, fmt.Errorf("rxlbench: unknown kind %q (want grid or sweep)", o.kind)
	}
}

// router picks the client a given spec should be submitted to. With a
// single -addr every spec maps to the one client; with -fleet it is the
// same owner the daemons' own ring would choose, so the bench exercises
// exactly the placement a front would produce — minus the extra hop.
type router struct {
	clients map[string]*service.Client
	ring    *fleet.Ring
	single  *service.Client
}

func newRouter(opt options) (*router, error) {
	if opt.fleetCSV == "" {
		return &router{single: service.NewClient(opt.addr)}, nil
	}
	var peers []string
	for _, p := range strings.Split(opt.fleetCSV, ",") {
		if p = strings.TrimSpace(p); p != "" {
			peers = append(peers, p)
		}
	}
	ring, err := fleet.NewRing(peers, 0)
	if err != nil {
		return nil, err
	}
	r := &router{ring: ring, clients: make(map[string]*service.Client, len(peers))}
	for _, p := range ring.Peers() {
		r.clients[p] = service.NewClient(p)
	}
	return r, nil
}

func (r *router) pick(spec service.JobSpec) (*service.Client, error) {
	if r.single != nil {
		return r.single, nil
	}
	norm, err := spec.Normalize()
	if err != nil {
		return nil, err
	}
	return r.clients[r.ring.Owner(norm.Key())], nil
}

// each runs fn once per distinct backend.
func (r *router) each(fn func(url string, c *service.Client)) {
	if r.single != nil {
		fn("", r.single)
		return
	}
	for _, p := range r.ring.Peers() {
		fn(p, r.clients[p])
	}
}

// sample is one completed request.
type sample struct {
	latency time.Duration
	cached  bool
}

// drawSeed picks the next request's seed slot: hot-set member (uniform
// or zipf rank) with probability repeat, otherwise a fresh unique seed.
func drawSeed(opt options, rng *rand.Rand, zipf *rand.Zipf, uniqueID *atomic.Uint64) uint64 {
	if rng.Float64() >= opt.repeat {
		return uniqueID.Add(1)
	}
	if zipf != nil {
		return opt.seed + zipf.Uint64()
	}
	return opt.seed + uint64(rng.Intn(opt.hot))
}

func run(opt options, w *os.File) error {
	if opt.repeat < 0 || opt.repeat > 1 {
		return fmt.Errorf("rxlbench: -repeat %g out of [0,1]", opt.repeat)
	}
	if opt.hot < 1 || opt.concurrency < 1 {
		return fmt.Errorf("rxlbench: need -hot >= 1 and -concurrency >= 1")
	}
	switch opt.dist {
	case "uniform", "zipf":
	default:
		return fmt.Errorf("rxlbench: unknown -dist %q (want uniform or zipf)", opt.dist)
	}
	if opt.dist == "zipf" && opt.zipfS <= 1 {
		return fmt.Errorf("rxlbench: -zipf-s must be > 1, got %g", opt.zipfS)
	}
	if _, err := opt.spec(0); err != nil {
		return err
	}
	rt, err := newRouter(opt)
	if err != nil {
		return err
	}
	ctx := context.Background()
	var unreachable error
	rt.each(func(url string, c *service.Client) {
		if err := c.Health(ctx); err != nil && unreachable == nil {
			unreachable = fmt.Errorf("rxlbench: daemon unreachable at %s: %w", url, err)
		}
	})
	if unreachable != nil {
		return unreachable
	}

	// Prime the hot set so the repeated fraction measures cache serving,
	// not the first computations.
	fmt.Fprintf(w, "priming %d hot config(s)...\n", opt.hot)
	for i := 0; i < opt.hot; i++ {
		spec, _ := opt.spec(opt.seed + uint64(i))
		c, err := rt.pick(spec)
		if err != nil {
			return err
		}
		if _, err := c.Run(ctx, spec); err != nil {
			return fmt.Errorf("rxlbench: priming hot config %d: %w", i, err)
		}
	}

	var (
		wg       sync.WaitGroup
		uniqueID atomic.Uint64
		stop     = time.Now().Add(opt.duration)
		results  = make([][]sample, opt.concurrency)
		errCount atomic.Uint64
		firstErr atomic.Value
	)
	uniqueID.Store(1 << 32) // unique seeds far from the hot set
	fmt.Fprintf(w, "running %d closed-loop clients for %s (repeat %.2f, dist %s)...\n",
		opt.concurrency, opt.duration, opt.repeat, opt.dist)

	start := time.Now()
	for wkr := 0; wkr < opt.concurrency; wkr++ {
		wg.Add(1)
		go func(wkr int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(wkr) + 1))
			var zipf *rand.Zipf
			if opt.dist == "zipf" {
				zipf = rand.NewZipf(rng, opt.zipfS, 1, uint64(opt.hot-1))
			}
			for time.Now().Before(stop) {
				spec, _ := opt.spec(drawSeed(opt, rng, zipf, &uniqueID))
				c, err := rt.pick(spec)
				if err != nil {
					errCount.Add(1)
					firstErr.CompareAndSwap(nil, err)
					continue
				}
				t0 := time.Now()
				v, err := c.Submit(ctx, spec)
				if err != nil && service.IsQueueFull(err) {
					time.Sleep(time.Duration(1+rng.Intn(4)) * time.Millisecond)
					continue
				}
				if err == nil && !v.Status.Terminal() {
					v, err = c.Wait(ctx, v.ID)
				}
				if err != nil {
					errCount.Add(1)
					firstErr.CompareAndSwap(nil, err)
					continue
				}
				if v.Status != service.StatusDone {
					errCount.Add(1)
					firstErr.CompareAndSwap(nil, fmt.Errorf("job %s: %s %s", v.ID, v.Status, v.Error))
					continue
				}
				results[wkr] = append(results[wkr], sample{latency: time.Since(t0), cached: v.Cached})
			}
		}(wkr)
	}
	wg.Wait()
	elapsed := time.Since(start)

	var all, hits, misses []sample
	for _, rs := range results {
		for _, s := range rs {
			all = append(all, s)
			if s.cached {
				hits = append(hits, s)
			} else {
				misses = append(misses, s)
			}
		}
	}
	if len(all) == 0 {
		if e, ok := firstErr.Load().(error); ok {
			return fmt.Errorf("rxlbench: no requests completed; first error: %w", e)
		}
		return fmt.Errorf("rxlbench: no requests completed")
	}

	fmt.Fprintf(w, "\n%d requests in %s — %.0f req/s (%d clients, closed loop)\n",
		len(all), elapsed.Round(time.Millisecond), float64(len(all))/elapsed.Seconds(), opt.concurrency)
	fmt.Fprintf(w, "cache hits %d (%.1f%%), computed %d, errors %d\n",
		len(hits), 100*float64(len(hits))/float64(len(all)), len(misses), errCount.Load())
	printLatency(w, "all     ", all)
	printLatency(w, "cached  ", hits)
	printLatency(w, "computed", misses)
	if e, ok := firstErr.Load().(error); ok {
		fmt.Fprintf(w, "first error: %v\n", e)
	}

	peerHits := 0
	rt.each(func(url string, c *service.Client) {
		st, err := c.Stats(ctx)
		if err != nil {
			return
		}
		label := "daemon"
		if url != "" {
			label = url
		}
		fmt.Fprintf(w, "\n%s: completed=%d dedup=%d queue=%d/%d budget=%d peak=%d cache-hit-rate=%.1f%%",
			label, st.JobsCompleted, st.DedupHits, st.QueueDepth, st.QueueCapacity,
			st.ShardBudget, st.PeakShardsInUse, 100*st.Cache.HitRate)
		if st.Fleet != nil {
			fmt.Fprintf(w, " peer-hits=%d peer-served=%d", st.Fleet.PeerHits, st.Fleet.PeerServed)
			peerHits += int(st.Fleet.PeerHits)
		}
		fmt.Fprintln(w)
	})

	if opt.jsonOut {
		pct := percentiler(all)
		line, _ := json.Marshal(map[string]any{
			"requests":    len(all),
			"elapsed_s":   elapsed.Seconds(),
			"rps":         float64(len(all)) / elapsed.Seconds(),
			"hit_rate":    float64(len(hits)) / float64(len(all)),
			"errors":      errCount.Load(),
			"p50_us":      pct(0.50).Microseconds(),
			"p95_us":      pct(0.95).Microseconds(),
			"p99_us":      pct(0.99).Microseconds(),
			"concurrency": opt.concurrency,
			"dist":        opt.dist,
			"peers":       len(rt.clients),
			"peer_hits":   peerHits,
		})
		fmt.Fprintf(w, "RESULT %s\n", line)
	}
	return nil
}

// percentiler returns a closure over the sorted latencies of ss.
func percentiler(ss []sample) func(p float64) time.Duration {
	ds := make([]time.Duration, len(ss))
	for i, s := range ss {
		ds[i] = s.latency
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return func(p float64) time.Duration {
		if len(ds) == 0 {
			return 0
		}
		return ds[int(p*float64(len(ds)-1))]
	}
}

// printLatency reports count, mean, and the standard percentiles.
func printLatency(w *os.File, label string, ss []sample) {
	if len(ss) == 0 {
		fmt.Fprintf(w, "%s  (none)\n", label)
		return
	}
	var sum time.Duration
	for _, s := range ss {
		sum += s.latency
	}
	pct := percentiler(ss)
	fmt.Fprintf(w, "%s  n=%-6d mean=%-10s p50=%-10s p95=%-10s p99=%-10s max=%s\n",
		label, len(ss), (sum / time.Duration(len(ss))).Round(time.Microsecond),
		pct(0.50).Round(time.Microsecond), pct(0.95).Round(time.Microsecond),
		pct(0.99).Round(time.Microsecond), pct(1.0).Round(time.Microsecond))
}
