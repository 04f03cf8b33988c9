// Command rxltop renders an rxld fleet at a glance from nothing but the
// Prometheus text every process serves on GET /metrics — so it doubles as
// an end-to-end check of the scrape surface: if rxltop shows it,
// Prometheus will too.
//
//	rxltop -front http://127.0.0.1:17080          # discover members via the front
//	rxltop -peers http://d1:8081,http://d2:8081   # or an explicit member list
//	rxltop -front http://127.0.0.1:17080 -watch   # redraw every 2 s
//
// One shot prints a FRONT line (routing counters) with one PEER line per
// member the front routes to (routability, probe verdict, traffic), then
// one MEMBER line per daemon: queue depth, running jobs, shard
// utilization, cache footprint and hit rate, request-latency quantiles
// rebuilt from the scraped histogram buckets, and peer-fetch traffic
// (h/m/s = fetch hits / fetch misses / served to peers). A process whose
// scrape fails renders as DOWN. -once forces one shot for scripts.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"strings"
	"time"

	"repro/internal/obs"
)

const watchInterval = 2 * time.Second

func main() {
	front := flag.String("front", "", "fleet front base URL; members are discovered from its /metrics")
	peers := flag.String("peers", "", "comma-separated member base URLs (instead of, or in addition to, -front)")
	once := flag.Bool("once", false, "print one snapshot and exit (the default without -watch)")
	watch := flag.Bool("watch", false, "redraw every 2s until interrupted")
	flag.Parse()
	if flag.NArg() > 0 || (*front == "" && *peers == "") || (*once && *watch) {
		fmt.Fprintln(os.Stderr, "usage: rxltop (-front URL | -peers URL,URL,...) [-once | -watch]")
		os.Exit(2)
	}
	var members []string
	for _, p := range strings.Split(*peers, ",") {
		if p = strings.TrimSpace(p); p != "" {
			members = append(members, strings.TrimRight(p, "/"))
		}
	}
	hc := &http.Client{Timeout: 3 * time.Second}
	for {
		ok := render(os.Stdout, hc, strings.TrimRight(*front, "/"), members)
		if !*watch {
			if !ok {
				os.Exit(1)
			}
			return
		}
		time.Sleep(watchInterval)
		fmt.Println()
	}
}

// scrape fetches and parses one process's /metrics.
func scrape(hc *http.Client, base string) ([]obs.Sample, error) {
	resp, err := hc.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	return obs.ParsePrometheus(resp.Body)
}

// render prints one snapshot. It reports false when the front (if any) or
// every member failed to scrape — nothing of the fleet could be seen.
func render(w io.Writer, hc *http.Client, front string, members []string) bool {
	frontOK := true
	if front != "" {
		fs, err := scrape(hc, front)
		if frontOK = err == nil; !frontOK {
			fmt.Fprintf(w, "FRONT %s DOWN (%v)\n", front, err)
		} else {
			members = renderFront(w, front, fs, members)
		}
	}
	seen := 0
	for _, m := range members {
		ms, err := scrape(hc, m)
		if err != nil {
			fmt.Fprintf(w, "MEMBER %s DOWN (%v)\n", m, err)
			continue
		}
		seen++
		renderMember(w, m, ms)
	}
	return frontOK && (seen > 0 || len(members) == 0)
}

// renderFront prints the front's routing counters and per-peer health,
// and returns members extended by the peers the front routes to (the
// peer label of rxlfront_peer_up, in scrape order).
func renderFront(w io.Writer, front string, fs []obs.Sample, members []string) []string {
	sum := func(name string, labels ...string) uint64 { return uint64(obs.SumSamples(fs, name, labels...)) }
	fmt.Fprintf(w, "FRONT %s forwards=%d failovers=%d hot_promotions=%d hot_tracked=%d\n", front,
		sum("rxlfront_forwards_total"), sum("rxlfront_failovers_total"),
		sum("rxlfront_hot_promotions_total"), sum("rxlfront_hot_tracked"))
	for _, s := range fs {
		if s.Name != "rxlfront_peer_up" {
			continue
		}
		peer := s.Label("peer")
		state, probe := "DOWN", "fail"
		if s.Value == 1 {
			state = "UP"
		}
		if sum("rxlfront_peer_probe_ok", "peer", peer) == 1 {
			probe = "ok"
		}
		fmt.Fprintf(w, "  PEER %s %s probe=%s routed=%d errors=%d probes=%d probe_fails=%d\n", peer, state, probe,
			sum("rxlfront_peer_routed_total", "peer", peer), sum("rxlfront_peer_errors_total", "peer", peer),
			sum("rxlfront_peer_probes_total", "peer", peer), sum("rxlfront_peer_probe_failures_total", "peer", peer))
		known := false
		for _, m := range members {
			known = known || m == peer
		}
		if !known {
			members = append(members, peer)
		}
	}
	return members
}

// renderMember prints one daemon's row from its scraped samples.
func renderMember(w io.Writer, base string, ms []obs.Sample) {
	val := func(name string) float64 { return obs.SumSamples(ms, name) }
	hits := val("rxld_cache_hits_total") + val("rxld_cache_disk_hits_total")
	hitRate := 0.0
	if total := hits + val("rxld_cache_misses_total"); total > 0 {
		hitRate = hits / total
	}
	// All outcomes folded into one latency distribution.
	bounds, cum := obs.RebuildHistogram(ms, "rxld_request_seconds")
	q := func(p float64) string {
		v := obs.CumulativeQuantile(bounds, cum, p)
		if math.IsNaN(v) {
			return "-"
		}
		return time.Duration(v * float64(time.Second)).Round(10 * time.Microsecond).String()
	}
	fmt.Fprintf(w, "MEMBER %s UP queue=%.0f/%.0f running=%.0f shards=%.0f/%.0f (%.0f%%) cache=%.0f entries %.1f KiB hit=%.1f%% p50=%s p95=%s p99=%s peer h/m/s=%.0f/%.0f/%.0f\n",
		base, val("rxld_queue_depth"), val("rxld_queue_capacity"), val("rxld_running_jobs"),
		val("rxld_shards_in_use"), val("rxld_shard_budget"), 100*val("rxld_shard_utilization"),
		val("rxld_cache_entries"), val("rxld_cache_bytes")/1024, 100*hitRate,
		q(0.50), q(0.95), q(0.99),
		val("rxld_peer_fetch_hits_total"), val("rxld_peer_fetch_misses_total"), val("rxld_peer_served_total"))
}
