// Command rxld is the experiment-serving daemon: a long-running HTTP
// server that accepts sweep, grid, rare-event, protocol-comparison,
// rare-selfcheck, and scenario jobs as JSON — every workload the
// one-shot CLIs run — deduplicates them through a content-addressed
// result cache, and runs misses on an admission-controlled scheduler
// whose total shard concurrency never exceeds the configured budget.
//
// Usage:
//
//	rxld [-addr 127.0.0.1:8080] [-budget 0] [-queue 64] [-cache 256]
//	     [-spill DIR] [-job-workers 0] [-addr-file PATH]
//	     [-fleet-self URL -fleet-peers URL,URL,...]     # fleet member
//	rxld -fleet URL,URL,... [-addr ...] [-addr-file ...] # fleet front
//
// The bound address is printed on startup (and written to -addr-file when
// given), so -addr 127.0.0.1:0 picks a free port scriptably — the CI
// smoke job starts the daemon exactly that way.
//
// Fleet modes (see DESIGN.md §10 and OPERATIONS.md):
//
//   - Member: -fleet-self/-fleet-peers make this daemon part of a
//     consistent-hash fleet. On a cache miss it first asks the key's
//     ring owner for the bytes (GET /v1/cache/{key}, joining the
//     owner's in-flight computation when there is one) and only
//     computes when no peer has them. /v1/statsz grows a "fleet"
//     section (ring size, peer hits/misses/served).
//
//   - Front: -fleet runs a stateless router instead of a daemon. Every
//     submission is normalized, keyed, and forwarded to its owner —
//     hot keys are spread over a replica set — and job handles carry a
//     peer prefix ("p1~j000042-...") so GET/DELETE/events find the
//     daemon that issued them. No engines, no cache, restartable at
//     will.
//
// Observability (see OPERATIONS.md for the full family reference):
//
//   - GET /metrics on every daemon and front serves Prometheus text —
//     request latency histograms split by cache outcome, queue depth,
//     shard-budget utilization, cache bytes/entries, peer traffic, and
//     (front) per-peer health from the active prober. cmd/rxltop renders
//     a live fleet map from these.
//
//   - Every request gets (or propagates) an X-Rxl-Request-Id, and GET
//     /v1/jobs/{id}/trace returns the job's span log. Asked of a front,
//     the trace is assembled fleet-wide: front forwarding spans, the
//     owner's lifecycle spans, and any peer's cache-serve spans merge
//     under the one propagated ID.
//
//   - The front actively probes every member's /v1/healthz in the
//     background (-fleet-probe-interval) and routes around peers whose
//     probes fail; passive forward-failure marks remain as the fast path.
//
// API quickstart:
//
//	curl -s localhost:8080/v1/healthz
//	curl -s -X POST localhost:8080/v1/jobs -d '{
//	  "kind": "grid", "seed": 1,
//	  "grid": {"Base": {"Protocol": 2, "Levels": 1, "BER": 1e-6}, "N": 5000}
//	}'
//	curl -s localhost:8080/v1/jobs/<id>?wait=30000
//	curl -N localhost:8080/v1/jobs/<id>/events
//	curl -s localhost:8080/v1/statsz
//
// Repeating the POST answers from the cache ("cached": true) with
// byte-identical results — every engine is deterministic per (spec,
// seed), so the cache can never serve a stale answer, and in a fleet
// every daemon computes the same bytes, so routing can never change a
// result. Finished job fetches carry an ETag (the job's content
// address); repeat GETs with If-None-Match are answered 304.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/fleet"
	"repro/internal/service"
)

func main() {
	var (
		addr       = flag.String("addr", "127.0.0.1:8080", "listen address (use :0 for a random port)")
		budget     = flag.Int("budget", 0, "total shard concurrency across all jobs (0 = GOMAXPROCS)")
		jobWorkers = flag.Int("job-workers", 0, "default per-job worker request (0 = full budget)")
		queue      = flag.Int("queue", 64, "bounded job queue depth (admission control)")
		cacheSize  = flag.Int("cache", 256, "in-memory result cache entries (LRU)")
		spillDir   = flag.String("spill", "", "directory for cache disk spill (empty = memory only)")
		addrFile   = flag.String("addr-file", "", "write the bound address to this file once listening")

		front      = flag.String("fleet", "", "run as fleet front: comma-separated daemon base URLs to route over (no local engines)")
		fleetSelf  = flag.String("fleet-self", "", "this daemon's base URL within the fleet (member mode; requires -fleet-peers)")
		peersCSV   = flag.String("fleet-peers", "", "comma-separated base URLs of every fleet daemon, self included (member mode)")
		hotThresh  = flag.Int("fleet-hot-threshold", 0, "front: decayed repeat count that promotes a key to its replica set (0 = 32, negative disables)")
		hotRepl    = flag.Int("fleet-hot-replicas", 0, "front: distinct owners a hot key spreads over (0 = 2)")
		fetchWait  = flag.Duration("fleet-fetch-wait", 0, "member: how long a peer fetch may join the owner's in-flight computation (0 = 10s)")
		probeEvery = flag.Duration("fleet-probe-interval", 0, "front: background /v1/healthz probe period per peer (0 = 2s, negative disables)")
		probeTO    = flag.Duration("fleet-probe-timeout", 0, "front: per-probe timeout (0 = 1s)")
	)
	flag.Parse()

	if *front != "" && (*fleetSelf != "" || *peersCSV != "") {
		fmt.Fprintln(os.Stderr, "rxld: -fleet (front mode) and -fleet-self/-fleet-peers (member mode) are mutually exclusive")
		os.Exit(2)
	}
	if (*fleetSelf == "") != (*peersCSV == "") {
		fmt.Fprintln(os.Stderr, "rxld: member mode needs both -fleet-self and -fleet-peers")
		os.Exit(2)
	}

	var err error
	if *front != "" {
		err = runFront(*addr, *addrFile, fleet.FrontConfig{
			Peers:         splitCSV(*front),
			HotThreshold:  *hotThresh,
			HotReplicas:   *hotRepl,
			ProbeInterval: *probeEvery,
			ProbeTimeout:  *probeTO,
		})
	} else {
		cfg := service.Config{
			ShardBudget:       *budget,
			DefaultJobWorkers: *jobWorkers,
			QueueDepth:        *queue,
			CacheEntries:      *cacheSize,
			SpillDir:          *spillDir,
		}
		if *fleetSelf != "" {
			peers := splitCSV(*peersCSV)
			fetcher, ferr := fleet.NewFetcher(fleet.FetchConfig{
				Self:  *fleetSelf,
				Peers: peers,
				Wait:  *fetchWait,
			})
			if ferr != nil {
				fmt.Fprintln(os.Stderr, ferr)
				os.Exit(1)
			}
			cfg.PeerFetch = fetcher.Fetch
			cfg.FleetInfo = &service.FleetInfo{
				Self:     *fleetSelf,
				Peers:    len(fetcher.Ring().Peers()),
				RingSize: fetcher.Ring().Size(),
				Replicas: fetcher.Candidates(),
			}
		}
		err = run(*addr, *addrFile, cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// splitCSV splits a comma-separated flag, trimming blanks.
func splitCSV(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

// serve binds addr, announces it, and runs handler until SIGINT/SIGTERM,
// then drains connections and calls shutdown. Shared by both modes so a
// front and a member behave identically as processes.
func serve(addr, addrFile, role string, handler http.Handler, shutdown func()) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	bound := ln.Addr().String()
	log.Printf("rxld %s listening on %s", role, bound)
	if addrFile != "" {
		if err := os.WriteFile(addrFile, []byte(bound), 0o644); err != nil {
			ln.Close()
			return err
		}
	}

	hs := &http.Server{Handler: handler}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)

	select {
	case err := <-errc:
		shutdown()
		return err
	case s := <-sig:
		log.Printf("rxld %s: %v — draining", role, s)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("rxld %s: shutdown: %v", role, err)
	}
	shutdown()
	return nil
}

func run(addr, addrFile string, cfg service.Config) error {
	srv, err := service.New(cfg)
	if err != nil {
		return err
	}
	return serve(addr, addrFile, "daemon", srv, func() {
		srv.Close()
		st := srv.Stats()
		if st.Fleet != nil {
			log.Printf("rxld: fleet peer_hits=%d peer_misses=%d peer_served=%d",
				st.Fleet.PeerHits, st.Fleet.PeerMisses, st.Fleet.PeerServed)
		}
		log.Printf("rxld: served %d jobs (%d dedup), cache %d/%d hit rate %.1f%%",
			st.JobsCompleted, st.DedupHits, st.Cache.Hits+st.Cache.DiskHits,
			st.Cache.Hits+st.Cache.DiskHits+st.Cache.Misses, 100*st.Cache.HitRate)
	})
}

func runFront(addr, addrFile string, cfg fleet.FrontConfig) error {
	f, err := fleet.NewFront(cfg)
	if err != nil {
		return err
	}
	return serve(addr, addrFile, "front", f, func() {
		f.Close()
		st := f.Stats()
		log.Printf("rxld front: forwarded %d (failovers %d, hot promotions %d) over %d peers",
			st.Forwards, st.Failovers, st.HotPromotions, len(st.Peers))
	})
}
