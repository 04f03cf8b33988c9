package service

import (
	"time"

	"repro/internal/obs"
)

// Cache outcomes labelling the request-latency histograms of the daemon
// (rxld_request_seconds) and the fleet front (rxlfront_submit_seconds). A
// request's outcome is where its bytes came from: the local cache (hit),
// a fleet peer (peer_fetched), an identical in-flight job it joined
// (inflight_join), a local engine run (miss), or nowhere (error — failed
// or cancelled jobs).
const (
	OutcomeHit          = "hit"
	OutcomeMiss         = "miss"
	OutcomePeerFetched  = "peer_fetched"
	OutcomeInflightJoin = "inflight_join"
	OutcomeError        = "error"
)

// OutcomeHistograms pre-creates one latency histogram per outcome label
// under the family name, so the hot path never creates series.
func OutcomeHistograms(reg *obs.Registry, name, help string) map[string]*obs.Histogram {
	outcomes := []string{OutcomeHit, OutcomeMiss, OutcomePeerFetched, OutcomeInflightJoin, OutcomeError}
	hs := make(map[string]*obs.Histogram, len(outcomes))
	for _, oc := range outcomes {
		hs[oc] = reg.Histogram(name, help, nil, "outcome", oc)
	}
	return hs
}

// wireMetrics builds the daemon's /metrics registry and hands the serving
// code its counters. A registry counter is the one store of each count:
// the request path increments the handle and Stats reads its Value, so
// /metrics and /v1/statsz agree by construction. State that is not a
// count (scheduler occupancy, cache footprint) is sampled at scrape time
// from its owner. Family names and their statsz twins are tabulated in
// OPERATIONS.md ("Stats and metrics reference").
func (s *Server) wireMetrics() {
	reg := obs.NewRegistry()
	s.metrics = reg

	s.reqSeconds = OutcomeHistograms(reg, "rxld_request_seconds",
		"Submit-to-terminal job latency in seconds, by cache outcome.")

	reg.GaugeFunc("rxld_uptime_seconds", "Seconds since process start.",
		func() float64 { return time.Since(s.start).Seconds() })

	// Scheduler: queue + shard-budget utilization.
	reg.GaugeFunc("rxld_queue_depth", "Jobs waiting for admission.",
		func() float64 { q, _, _, _ := s.sched.snapshot(); return float64(q) })
	reg.GaugeFunc("rxld_queue_capacity", "Admission queue bound (overflow answers 429).",
		func() float64 { return float64(s.cfg.QueueDepth) })
	reg.GaugeFunc("rxld_running_jobs", "Jobs currently executing.",
		func() float64 { _, r, _, _ := s.sched.snapshot(); return float64(r) })
	reg.GaugeFunc("rxld_shards_in_use", "Worker shards granted to running jobs.",
		func() float64 { _, _, u, _ := s.sched.snapshot(); return float64(u) })
	reg.GaugeFunc("rxld_shard_budget", "Total worker-shard budget.",
		func() float64 { return float64(s.cfg.ShardBudget) })
	reg.GaugeFunc("rxld_shard_utilization", "shards_in_use / shard_budget.",
		func() float64 {
			_, _, u, _ := s.sched.snapshot()
			return float64(u) / float64(s.cfg.ShardBudget)
		})

	s.submitted = reg.Counter("rxld_jobs_submitted_total", "Jobs admitted (hits included).")
	s.completed = reg.Counter("rxld_jobs_completed_total", "Jobs reaching a terminal state.")
	s.dedups = reg.Counter("rxld_dedup_hits_total", "Submissions coalesced onto an in-flight twin.")

	// Cache tiers.
	c := s.cache
	reg.GaugeFunc("rxld_cache_entries", "Memory-tier entries.",
		func() float64 { return float64(c.Stats().Entries) })
	reg.GaugeFunc("rxld_cache_capacity", "Memory-tier entry bound.",
		func() float64 { return float64(c.capacity) })
	reg.GaugeFunc("rxld_cache_bytes", "Result bytes resident in the memory tier.",
		func() float64 { return float64(c.Stats().Bytes) })
	c.hits = reg.Counter("rxld_cache_hits_total", "Client-facing memory-tier hits.")
	c.misses = reg.Counter("rxld_cache_misses_total", "Client-facing cache misses.")
	c.diskHits = reg.Counter("rxld_cache_disk_hits_total", "Misses answered by the disk tier.")
	c.spills = reg.Counter("rxld_cache_spills_total", "Entries written through to disk.")

	// Fleet families exist only on members — a standalone daemon's scrape
	// carries no dead peer series. It still counts (any daemon can be
	// probed, and statsz reports cache.probes), into a registry nobody
	// scrapes.
	peerReg := reg
	if s.cfg.PeerFetch == nil && s.cfg.FleetInfo == nil {
		peerReg = obs.NewRegistry()
	}
	c.probes = peerReg.Counter("rxld_cache_probes_total", "Peer cache lookups received (GET /v1/cache/{key}).")
	s.peerHits = peerReg.Counter("rxld_peer_fetch_hits_total", "Local misses answered with a peer's bytes.")
	s.peerMisses = peerReg.Counter("rxld_peer_fetch_misses_total", "Fleet consultations that fell through to a local compute.")
	s.peerServed = peerReg.Counter("rxld_peer_served_total", "Peer cache lookups answered with bytes.")

	reg.GaugeFunc("rxld_traces_live", "Request IDs with spans in the trace buffer.",
		func() float64 { return float64(s.tracer.Size()) })
}

// observeJob classifies a finished job's cache outcome and feeds the
// latency histogram and the job's trace. It runs from the terminal hook,
// so every path to a terminal state — engine completion, peer fetch,
// cache hit, cancellation — is observed exactly once, and before the
// terminal event wakes any waiter: a client that sees the job finish
// finds the finish span already in its trace.
func (s *Server) observeJob(j *Job) {
	j.mu.Lock()
	status, cached, peer := j.status, j.cached, j.peerFetched
	finished := j.finished
	dur := finished.Sub(j.submitted)
	j.mu.Unlock()

	outcome := OutcomeMiss
	switch {
	case status != StatusDone:
		outcome = OutcomeError
	case cached:
		outcome = OutcomeHit
	case peer:
		outcome = OutcomePeerFetched
	}
	s.reqSeconds[outcome].Observe(dur.Seconds())
	s.tracer.Record(j.rid, "finish", finished, 0, map[string]string{
		"status": string(status), "outcome": outcome, "job": j.ID,
	})
}
