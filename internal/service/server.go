package service

import (
	"context"
	"net/http"
	"runtime"
	"sync"
	"time"

	"repro/internal/obs"
)

// Config parameterizes a Server. The zero value is usable: GOMAXPROCS
// shard budget, a 64-deep queue, a 256-entry memory-only cache.
type Config struct {
	// ShardBudget is the total worker allocation shared by all running
	// jobs (0 = runtime.GOMAXPROCS). The scheduler guarantees the sum of
	// per-job runner workers never exceeds it.
	ShardBudget int
	// QueueDepth bounds the pending-job queue; submissions past it are
	// rejected with ErrQueueFull / HTTP 429 (0 = 64).
	QueueDepth int
	// CacheEntries bounds the in-memory result cache (0 = 256).
	CacheEntries int
	// SpillDir, when non-empty, persists cache entries to disk so
	// restarts and LRU evictions keep answering repeats.
	SpillDir string
	// PeerFetch, when non-nil, makes the daemon a fleet member: it is
	// consulted on every cache miss after the job is dispatched but
	// before any engine runs, and may return result bytes computed by
	// another daemon (internal/fleet wires it to the consistent-hash
	// owner's GET /v1/cache/{key}). A fetched result is cached and
	// served exactly as if computed locally — the bytes are identical by
	// the engines' determinism, so where they came from is unobservable
	// in the document. Because misses are registered in-flight before
	// the fetch, concurrent identical submissions coalesce onto the one
	// fetching job: single-flight holds across the fetch. Bytes that are
	// not a JSON document in encoder form are refused (a peer miss).
	PeerFetch func(ctx context.Context, key string) ([]byte, bool)
	// FleetInfo, when non-nil, describes this daemon's fleet membership
	// for /v1/statsz (ring size, peer count). Purely informational.
	FleetInfo *FleetInfo
}

// FleetInfo is the static fleet membership a daemon reports in its
// stats. The serving layer never interprets it — routing lives in
// internal/fleet — it only surfaces what the operator configured.
type FleetInfo struct {
	// Self is this daemon's advertised base URL.
	Self string `json:"self"`
	// Peers is the fleet size, self included.
	Peers int `json:"peers"`
	// RingSize is the virtual-node count on the consistent-hash ring.
	RingSize int `json:"ring_size"`
	// Replicas is how many distinct owners a fetch will try before
	// computing locally (the fetcher's candidate budget).
	Replicas int `json:"replicas"`
}

// withDefaults resolves the zero fields.
func (c Config) withDefaults() Config {
	if c.ShardBudget <= 0 {
		c.ShardBudget = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 256
	}
	return c
}

// jobHistory bounds retained terminal jobs; the oldest finished jobs are
// forgotten past it. Queued/running jobs are never evicted.
const jobHistory = 4096

// Server is the experiment-serving daemon: cache, scheduler, job
// registry, and the HTTP surface. It is an http.Handler; cmd/rxld mounts
// it on a listener, tests mount it on httptest, and the in-process client
// calls it directly.
type Server struct {
	cfg     Config
	cache   *Cache
	sched   *scheduler
	handler http.Handler // the mux behind the request-ID middleware
	start   time.Time

	metrics    *obs.Registry
	reqSeconds map[string]*obs.Histogram // outcome label → latency histogram
	tracer     *obs.Tracer

	// Registry counters (see wireMetrics): the only store of each count.
	submitted  *obs.Counter
	completed  *obs.Counter
	dedups     *obs.Counter
	peerHits   *obs.Counter // misses answered by PeerFetch
	peerMisses *obs.Counter // PeerFetch attempts that fell through to compute
	peerServed *obs.Counter // /v1/cache/{key} requests answered with bytes

	mu       sync.Mutex
	jobs     map[string]*Job
	inflight map[string]*Job // cache key → live job (dedup coalescing)
	// finished holds terminal jobs in the order they finished, from
	// finishedHead on: finalize appends, and retires the head once more
	// than jobHistory are held.
	finished     []*Job
	finishedHead int
	seq          uint64
	closed       bool
}

// New builds a Server from the configuration.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	cache, err := NewCache(cfg.CacheEntries, cfg.SpillDir)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:      cfg,
		cache:    cache,
		start:    time.Now(),
		jobs:     make(map[string]*Job),
		inflight: make(map[string]*Job),
	}
	origin := "rxld"
	if cfg.FleetInfo != nil && cfg.FleetInfo.Self != "" {
		origin = cfg.FleetInfo.Self
	}
	s.tracer = obs.NewTracer("daemon", origin)
	s.wireMetrics()
	s.sched = newScheduler(cfg.ShardBudget, cfg.QueueDepth, s.runJob)

	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleGet)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleJobTrace)
	mux.HandleFunc("GET /v1/trace/{rid}", s.handleTrace)
	mux.HandleFunc("GET /v1/cache/{key}", s.handleCacheFetch)
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	mux.HandleFunc("GET /v1/statsz", s.handleStatsz)
	mux.Handle("GET /metrics", s.metrics.Handler())
	s.handler = s.tracer.Middleware(mux)
	return s, nil
}

// ServeHTTP implements http.Handler: the /v1 mux behind the tracer's
// request-ID middleware, so every handler records spans under the ID the
// client sent (or was issued).
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.handler.ServeHTTP(w, r)
}

// Close stops admission, cancels every queued and running job, and waits
// for the running ones to return. Safe to call more than once.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.sched.close()
	s.sched.wait()
}

// Stats is the /v1/statsz document.
type Stats struct {
	UptimeMS        int64 `json:"uptime_ms"`
	ShardBudget     int   `json:"shard_budget"`
	ShardsInUse     int   `json:"shards_in_use"`
	PeakShardsInUse int   `json:"peak_shards_in_use"`
	// ShardUtilization is ShardsInUse / ShardBudget.
	ShardUtilization float64        `json:"shard_utilization"`
	QueueDepth       int            `json:"queue_depth"`
	QueueCapacity    int            `json:"queue_capacity"`
	RunningJobs      int            `json:"running_jobs"`
	JobsSubmitted    uint64         `json:"jobs_submitted"`
	JobsCompleted    uint64         `json:"jobs_completed"`
	DedupHits        uint64         `json:"dedup_hits"`
	JobsByStatus     map[Status]int `json:"jobs_by_status"`
	Cache            CacheStats     `json:"cache"`
	// Fleet is present only on fleet members (Config.FleetInfo set).
	Fleet *FleetStats `json:"fleet,omitempty"`
}

// Stats snapshots the server.
func (s *Server) Stats() Stats {
	queued, running, inUse, peak := s.sched.snapshot()
	st := Stats{
		UptimeMS:         time.Since(s.start).Milliseconds(),
		ShardBudget:      s.cfg.ShardBudget,
		ShardsInUse:      inUse,
		PeakShardsInUse:  peak,
		ShardUtilization: float64(inUse) / float64(s.cfg.ShardBudget),
		QueueDepth:       queued,
		QueueCapacity:    s.cfg.QueueDepth,
		RunningJobs:      running,
		JobsSubmitted:    s.submitted.Value(),
		JobsCompleted:    s.completed.Value(),
		DedupHits:        s.dedups.Value(),
		JobsByStatus:     make(map[Status]int),
		Cache:            s.cache.Stats(),
	}
	if s.cfg.FleetInfo != nil {
		st.Fleet = &FleetStats{
			FleetInfo:  *s.cfg.FleetInfo,
			PeerHits:   s.peerHits.Value(),
			PeerMisses: s.peerMisses.Value(),
			PeerServed: s.peerServed.Value(),
			PeerProbes: st.Cache.Probes,
		}
	}
	s.mu.Lock()
	for _, j := range s.jobs {
		st.JobsByStatus[j.Status()]++
	}
	s.mu.Unlock()
	return st
}
