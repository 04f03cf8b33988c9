package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/runner"
)

// Config parameterizes a Server. The zero value is usable: GOMAXPROCS
// shard budget, a 64-deep queue, a 256-entry memory-only cache.
type Config struct {
	// ShardBudget is the total worker allocation shared by all running
	// jobs (0 = runtime.GOMAXPROCS). The scheduler guarantees the sum of
	// per-job runner workers never exceeds it.
	ShardBudget int
	// DefaultJobWorkers is the allocation requested for jobs that leave
	// Spec.Workers zero (0 = the full shard budget).
	DefaultJobWorkers int
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
	// fetching job: single-flight holds across the fetch.
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
	if c.DefaultJobWorkers <= 0 || c.DefaultJobWorkers > c.ShardBudget {
		c.DefaultJobWorkers = c.ShardBudget
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
	order    []*Job          // submission order, for history trimming
	inflight map[string]*Job // cache key → live job (dedup coalescing)
	seq      uint64
	closed   bool
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
	s.sched = newScheduler(cfg.ShardBudget, cfg.QueueDepth, cfg.DefaultJobWorkers, s.runJob)

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

// Close stops admission, cancels every live job, and waits for the
// scheduler to drain. Safe to call more than once.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	live := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		live = append(live, j)
	}
	s.mu.Unlock()

	s.sched.close()
	for _, j := range live {
		if !j.Status().Terminal() {
			j.Cancel()
		}
	}
	s.sched.wait()
}

// Cache exposes the result cache (cmd/rxld logs its stats on shutdown).
func (s *Server) Cache() *Cache { return s.cache }

// Submit is the in-process submission path: exactly what POST /v1/jobs
// does, minus HTTP. It returns the job — already done on a cache hit, or
// an existing in-flight job (dedup=true) when an identical spec is still
// executing.
func (s *Server) Submit(spec JobSpec) (j *Job, dedup bool, err error) {
	return s.SubmitCtx(context.Background(), spec)
}

// SubmitCtx is Submit carrying the caller's request context, which (when
// it came through ServeHTTP) holds the request ID the job's trace spans
// record under. The context traces the submission; it does not bound the
// job's lifetime — jobs outlive their submitting requests by design.
func (s *Server) SubmitCtx(ctx context.Context, spec JobSpec) (j *Job, dedup bool, err error) {
	norm, err := spec.Normalize()
	if err != nil {
		return nil, false, err
	}
	key := norm.Key()
	rid := obs.RequestID(ctx)
	s.tracer.Record(rid, "submit", time.Now(), 0, map[string]string{
		"kind": norm.Kind, "key": key[:8],
	})

	if res, ok := s.cache.Get(key); ok {
		return s.serveHit(rid, norm, key, res)
	}

	// The in-flight lookup and the key reservation happen under one lock
	// acquisition: two concurrent identical submissions must coalesce,
	// never both slip past the check and run the engine twice.
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, false, ErrClosed
	}
	if ex, ok := s.inflight[key]; ok && schedulingEqual(ex.Spec, norm) {
		// Coalescing shares one job — including its deadline and its
		// response to DELETE — so it only applies when the scheduling
		// fields match too; a same-key spec with a different timeout or
		// priority runs on its own rather than inheriting another
		// client's fate. (It cannot claim the in-flight key, so it
		// computes redundantly — the correct price for divergent
		// scheduling demands.)
		s.dedups.Inc()
		s.mu.Unlock()
		// The join is this request's outcome, observed now: it has no job
		// of its own to reach a terminal hook.
		s.reqSeconds[OutcomeInflightJoin].Observe(0)
		s.tracer.Record(rid, "inflight_join", time.Now(), 0, map[string]string{
			"job": ex.ID, "key": key[:8],
		})
		return ex, true, nil
	}
	// Re-check the cache under the lock: an in-flight sibling that just
	// finished writes the cache *before* releasing its key claim
	// (runJob: cache.Put → finish → finalize), so a miss above plus no
	// in-flight entry here guarantees the result truly doesn't exist yet
	// — without this re-check, a submission racing the sibling's finish
	// would recompute bytes the cache already holds.
	if res, ok := s.cache.Get(key); ok {
		s.mu.Unlock()
		return s.serveHit(rid, norm, key, res)
	}
	inflight := true
	if ex, ok := s.inflight[key]; ok && ex != nil {
		inflight = false // key already claimed by a scheduling-divergent twin
	}
	j = s.registerLocked(rid, norm, key, inflight)
	s.mu.Unlock()

	if err := s.sched.submit(j); err != nil {
		s.unregister(j)
		return nil, false, err
	}
	return j, false, nil
}

// serveHit registers a terminal job view for a cache hit. Hits respect
// admission shutdown like misses do: a closed server serves nothing.
func (s *Server) serveHit(rid string, norm JobSpec, key string, res []byte) (*Job, bool, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, false, ErrClosed
	}
	j := s.registerLocked(rid, norm, key, false)
	j.cached = true
	s.mu.Unlock()
	j.finish(StatusDone, res, "")
	return j, false, nil
}

// schedulingEqual reports whether two normalized specs agree on the
// fields excluded from the cache key — the ones that decide when a job
// runs, how long it may take, and (by sharing a job ID) whose DELETE
// cancels it.
func schedulingEqual(a, b JobSpec) bool {
	return a.Priority == b.Priority && a.TimeoutMS == b.TimeoutMS && a.Workers == b.Workers
}

// CancelJob cancels a job and, when it was still queued, frees its
// admission slot immediately — a dead job must not hold QueueDepth
// against live submissions.
func (s *Server) CancelJob(j *Job) {
	j.Cancel()
	s.sched.remove(j)
}

// Job returns the job with the given ID.
func (s *Server) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// registerLocked allocates a job — cancellation context, queued event,
// terminal hook — and adds it to the registry (and the in-flight index
// when it will execute), trimming terminal history past the configured
// bound. The job's context carries the submitting request's trace, so
// spans recorded deep in execution (the peer fetcher's probes) land
// under the same request ID. Caller holds s.mu.
func (s *Server) registerLocked(rid string, spec JobSpec, key string, inflight bool) *Job {
	ctx, cancel := context.WithCancel(obs.WithTrace(context.Background(), s.tracer, rid))
	s.seq++
	seq := s.seq
	j := &Job{
		ID:         fmt.Sprintf("j%06d-%s", seq, key[:8]),
		Key:        key,
		Spec:       spec,
		rid:        rid,
		seq:        seq,
		ctx:        ctx,
		cancel:     cancel,
		events:     newBroker(),
		onTerminal: s.finalize,
	}
	j.status = StatusQueued
	j.submitted = time.Now()
	j.events.publish(Event{Type: "status", Status: StatusQueued}, false)

	s.submitted.Inc()
	s.jobs[j.ID] = j
	s.order = append(s.order, j)
	if inflight {
		s.inflight[key] = j
	}
	if len(s.order) > jobHistory {
		kept := s.order[:0]
		excess := len(s.order) - jobHistory
		for _, old := range s.order {
			if excess > 0 && old.Status().Terminal() {
				delete(s.jobs, old.ID)
				excess--
				continue
			}
			kept = append(kept, old)
		}
		s.order = kept
	}
	return j
}

// unregister removes a job whose admission failed.
func (s *Server) unregister(j *Job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.jobs, j.ID)
	if s.inflight[j.Key] == j {
		delete(s.inflight, j.Key)
	}
	for i, o := range s.order {
		if o == j {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
}

// finalize clears a finished job's in-flight entry and counts it
// served. It is the job's onTerminal hook, so it runs exactly once on
// every path to a terminal state — engine completion, cancellation of a
// job still in the queue, shutdown drain — and an identical future
// submission can never coalesce onto a dead job.
func (s *Server) finalize(j *Job) {
	s.mu.Lock()
	if s.inflight[j.Key] == j {
		delete(s.inflight, j.Key)
	}
	s.completed.Inc()
	s.mu.Unlock()
	s.observeJob(j)
}

// runJob is the scheduler's execution callback: size a runner pool to the
// granted allocation, bridge its progress into the job's event stream,
// run the engine, populate the cache on success. Fleet members first ask
// the key's owner for the bytes (PeerFetch): a daemon that is not the
// owner of a key fills from the daemon that is — or joins its in-flight
// computation — instead of re-running engines. Either way the result
// bytes are the ones the spec determines; only the source differs.
func (s *Server) runJob(j *Job, workers int) {
	if !j.setRunning(workers) {
		// Cancelled while queued; finish already ran the terminal hook.
		return
	}
	j.mu.Lock()
	submitted, started := j.submitted, j.started
	j.mu.Unlock()
	s.tracer.Record(j.rid, "queue_wait", submitted, started.Sub(submitted), nil)
	s.tracer.Record(j.rid, "admission_grant", started, 0, map[string]string{
		"workers": strconv.Itoa(workers), "job": j.ID,
	})
	ctx := j.ctx
	if j.Spec.TimeoutMS > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(j.Spec.TimeoutMS)*time.Millisecond)
		defer cancel()
	}
	if s.cfg.PeerFetch != nil {
		fetchStart := time.Now()
		if res, ok := s.cfg.PeerFetch(ctx, j.Key); ok {
			s.peerHits.Inc()
			s.tracer.Record(j.rid, "peer_fetch", fetchStart, time.Since(fetchStart),
				map[string]string{"hit": "true"})
			cw := time.Now()
			s.cache.Put(j.Key, res)
			s.tracer.Record(j.rid, "cache_write", cw, time.Since(cw), nil)
			j.setPeerFetched()
			j.finish(StatusDone, res, "")
			return
		}
		s.peerMisses.Inc()
		s.tracer.Record(j.rid, "peer_fetch", fetchStart, time.Since(fetchStart),
			map[string]string{"hit": "false"})
		if ctx.Err() != nil {
			// The fetch consumed the job's deadline or the client
			// cancelled mid-fetch; don't start an engine run that would
			// only be torn down.
			if errors.Is(ctx.Err(), context.DeadlineExceeded) {
				j.finish(StatusFailed, nil, "deadline exceeded")
			} else {
				j.finish(StatusCanceled, nil, ctx.Err().Error())
			}
			return
		}
	}
	pool := runner.Pool{Workers: workers, BaseSeed: j.Spec.Seed, Progress: j.progress}
	runStart := time.Now()
	res, err := execute(ctx, j.Spec, pool)
	s.tracer.Record(j.rid, "run", runStart, time.Since(runStart), map[string]string{
		"kind": j.Spec.Kind, "shards": strconv.FormatInt(j.shardsDone.Load(), 10),
	})
	switch {
	case err == nil:
		cw := time.Now()
		s.cache.Put(j.Key, res)
		s.tracer.Record(j.rid, "cache_write", cw, time.Since(cw), nil)
		j.finish(StatusDone, res, "")
	case errors.Is(err, context.Canceled):
		j.finish(StatusCanceled, nil, err.Error())
	case errors.Is(err, context.DeadlineExceeded):
		j.finish(StatusFailed, nil, "deadline exceeded")
	default:
		j.finish(StatusFailed, nil, err.Error())
	}
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

// FleetStats is the fleet section of /v1/statsz: the configured
// membership plus this daemon's peer-traffic counters.
type FleetStats struct {
	FleetInfo
	// PeerHits counts local misses answered by fetching the bytes from
	// a peer (the owner, or a fallback owner) instead of computing.
	PeerHits uint64 `json:"peer_hits"`
	// PeerMisses counts fetch attempts that found no peer copy and fell
	// through to a local engine run.
	PeerMisses uint64 `json:"peer_misses"`
	// PeerServed counts GET /v1/cache/{key} requests this daemon
	// answered with bytes — its service to the rest of the fleet.
	PeerServed uint64 `json:"peer_served"`
	// PeerProbes counts all GET /v1/cache/{key} lookups received.
	PeerProbes uint64 `json:"peer_probes"`
}

// Stats snapshots the server.
func (s *Server) Stats() Stats {
	queued, running, inUse, peak := s.sched.snapshot()
	st := Stats{
		UptimeMS:        time.Since(s.start).Milliseconds(),
		ShardBudget:     s.cfg.ShardBudget,
		ShardsInUse:     inUse,
		PeakShardsInUse: peak,
		QueueDepth:      queued,
		QueueCapacity:   s.cfg.QueueDepth,
		RunningJobs:     running,
		JobsSubmitted:   s.submitted.Value(),
		JobsCompleted:   s.completed.Value(),
		DedupHits:       s.dedups.Value(),
		JobsByStatus:    make(map[Status]int),
		Cache:           s.cache.Stats(),
	}
	if st.ShardBudget > 0 {
		st.ShardUtilization = float64(inUse) / float64(st.ShardBudget)
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

// ---- HTTP handlers ----

// apiError is the uniform error body.
type apiError struct {
	Error string `json:"error"`
}

// WriteJSON writes compact JSON — the one response encoder of the daemon
// and the fleet front. Compactness matters beyond bytes on the wire:
// result documents are stored and served as raw messages, and an
// indenting encoder would reformat them — breaking the byte-identity
// between cached, uncached, and direct library runs that the cache's
// whole design guarantees.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// WriteError answers with the uniform error body {"error": msg}.
func WriteError(w http.ResponseWriter, status int, msg string) {
	WriteJSON(w, status, apiError{Error: msg})
}

// parseWait reads the ?wait=ms long-poll budget: absent means no wait
// (ok with d == 0), negative or non-numeric is rejected, and anything
// past a minute is clamped so a handler goroutine never parks for longer.
func parseWait(r *http.Request) (d time.Duration, ok bool) {
	waitStr := r.URL.Query().Get("wait")
	if waitStr == "" {
		return 0, true
	}
	ms, err := strconv.Atoi(waitStr)
	if err != nil || ms < 0 {
		return 0, false
	}
	if ms > 60_000 {
		ms = 60_000
	}
	return time.Duration(ms) * time.Millisecond, true
}

// DecodeSpec reads the POST /v1/jobs body strictly (unknown fields are a
// client error, not silently dropped parameters), answering 400 itself
// when it cannot.
func DecodeSpec(w http.ResponseWriter, r *http.Request) (spec JobSpec, ok bool) {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		WriteError(w, http.StatusBadRequest, "decode spec: "+err.Error())
		return spec, false
	}
	return spec, true
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	spec, ok := DecodeSpec(w, r)
	if !ok {
		return
	}
	j, dedup, err := s.SubmitCtx(r.Context(), spec)
	switch {
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		WriteError(w, http.StatusTooManyRequests, err.Error())
		return
	case errors.Is(err, ErrClosed):
		WriteError(w, http.StatusServiceUnavailable, err.Error())
		return
	case err != nil:
		WriteError(w, http.StatusBadRequest, err.Error())
		return
	}

	v := j.View()
	v.Dedup = dedup
	status := http.StatusAccepted
	if v.Status.Terminal() {
		status = http.StatusOK
	}
	writeJobView(w, r, v, status)
}

// writeJobView writes a job view, attaching cache-validation headers when
// the job carries a result: the ETag is the job's content address (the
// SHA-256 cache key), which by the engines' determinism is also the
// identity of the result bytes. A conditional GET whose If-None-Match
// covers that address short-circuits to 304 with no body — repeat
// watchers of finished jobs stop re-downloading result documents. Only
// GET/HEAD evaluate the precondition (RFC 9110 §13.1.2): a submit
// response must always carry its body, or the caller loses the job ID.
func writeJobView(w http.ResponseWriter, r *http.Request, v JobView, status int) {
	if v.Status == StatusDone && v.Key != "" {
		etag := `"` + v.Key + `"`
		w.Header().Set("ETag", etag)
		if (r.Method == http.MethodGet || r.Method == http.MethodHead) &&
			etagMatches(r.Header.Get("If-None-Match"), etag) {
			w.WriteHeader(http.StatusNotModified)
			return
		}
	}
	WriteJSON(w, status, v)
}

// etagMatches implements the weak-comparison If-None-Match rules the 304
// path needs: a literal list of (possibly W/-prefixed) quoted tags, or
// the wildcard.
func etagMatches(header, etag string) bool {
	if header == "" {
		return false
	}
	if strings.TrimSpace(header) == "*" {
		return true
	}
	for _, cand := range strings.Split(header, ",") {
		cand = strings.TrimSpace(cand)
		cand = strings.TrimPrefix(cand, "W/")
		if cand == etag {
			return true
		}
	}
	return false
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		WriteError(w, http.StatusNotFound, "no such job")
		return
	}
	wait, ok := parseWait(r)
	if !ok {
		WriteError(w, http.StatusBadRequest, "bad wait parameter")
		return
	}
	if wait > 0 {
		waitTerminal(r.Context(), j, wait)
	}
	writeJobView(w, r, j.View(), http.StatusOK)
}

// waitTerminal long-polls the job's event broker until the log is
// terminal, the budget elapses, or the client goes away.
func waitTerminal(ctx context.Context, j *Job, d time.Duration) {
	deadline := time.NewTimer(d)
	defer deadline.Stop()
	from := 0
	for {
		evs, wake, done := j.events.snapshot(from)
		from += len(evs)
		if done {
			return
		}
		select {
		case <-wake:
		case <-deadline.C:
			return
		case <-ctx.Done():
			return
		}
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		WriteError(w, http.StatusNotFound, "no such job")
		return
	}
	s.CancelJob(j)
	WriteJSON(w, http.StatusOK, j.View())
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		WriteError(w, http.StatusNotFound, "no such job")
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		WriteError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	from := 0
	for {
		evs, wake, done := j.events.snapshot(from)
		for i, e := range evs {
			data, err := json.Marshal(e)
			if err != nil {
				return
			}
			fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", from+i, e.Type, data)
		}
		if len(evs) > 0 {
			flusher.Flush()
		}
		from += len(evs)
		if done {
			return
		}
		select {
		case <-wake:
		case <-r.Context().Done():
			return
		}
	}
}

// handleCacheFetch is the fleet peer-fetch protocol: serve the raw
// result bytes for a cache key, or 404 — never compute. With ?wait=ms,
// a key that is currently being computed here is joined: the request
// blocks until the in-flight job finishes (or the budget elapses) and
// then serves the freshly cached bytes. That join is what makes a hot
// key compute once fleet-wide — a replica asking the owner during the
// owner's first computation gets the owner's bytes, not a second run.
func (s *Server) handleCacheFetch(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if !validKey(key) {
		WriteError(w, http.StatusBadRequest, "cache key must be a hex sha-256")
		return
	}
	serve := func(b []byte) {
		s.peerServed.Inc()
		// Recorded under the *fetching* daemon's request ID (propagated in
		// the request header), so the owner's serve shows up in the trace
		// of the miss that triggered the fetch.
		obs.Record(r.Context(), "peer_serve", time.Now(), map[string]string{
			"key": key[:8],
		})
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("ETag", `"`+key+`"`)
		w.Write(b)
	}
	if b, ok := s.cache.Probe(key); ok {
		serve(b)
		return
	}
	wait, ok := parseWait(r)
	if !ok {
		WriteError(w, http.StatusBadRequest, "bad wait parameter")
		return
	}
	if wait > 0 {
		s.mu.Lock()
		j := s.inflight[key]
		s.mu.Unlock()
		if j != nil {
			waitTerminal(r.Context(), j, wait)
			if b, ok := s.cache.Probe(key); ok {
				serve(b)
				return
			}
		}
	}
	WriteError(w, http.StatusNotFound, "not cached")
}

// TraceView is the JSON document of GET /v1/jobs/{id}/trace and
// GET /v1/trace/{rid}: the spans one process recorded under a request
// ID. The fleet front assembles a cross-process trace by fetching this
// document from every member and merging on start time.
type TraceView struct {
	RequestID string     `json:"request_id"`
	JobID     string     `json:"job_id,omitempty"`
	Spans     []obs.Span `json:"spans"`
}

func (s *Server) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		WriteError(w, http.StatusNotFound, "no such job")
		return
	}
	spans := s.tracer.Spans(j.rid)
	if spans == nil {
		spans = []obs.Span{}
	}
	WriteJSON(w, http.StatusOK, TraceView{RequestID: j.rid, JobID: j.ID, Spans: spans})
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	rid := r.PathValue("rid")
	spans := s.tracer.Spans(rid)
	if spans == nil {
		WriteError(w, http.StatusNotFound, "no trace for request id")
		return
	}
	WriteJSON(w, http.StatusOK, TraceView{RequestID: rid, Spans: spans})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, map[string]any{
		"ok":        true,
		"uptime_ms": time.Since(s.start).Milliseconds(),
	})
}

func (s *Server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, s.Stats())
}
