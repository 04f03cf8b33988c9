package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/service"
)

// FrontConfig parameterizes a Front.
type FrontConfig struct {
	// Peers are the daemons' base URLs (e.g. "http://127.0.0.1:8081").
	Peers []string
	// HotThreshold is the decayed request count at which a key is
	// promoted to its replica set (0 = 32; < 0 disables promotion).
	HotThreshold int
	// HotReplicas is how many distinct owners a promoted key's requests
	// spread over (0 = 2; clamped to the fleet size).
	HotReplicas int
	// RetryDead is how long a peer that failed a forward is skipped
	// before being retried (0 = 3s).
	RetryDead time.Duration
	// ProbeInterval is the active health-probe period: the front probes
	// every peer's /v1/healthz in the background and routes around peers
	// whose probes fail, independent of forward traffic (0 = 2s; < 0
	// disables probing, leaving only the passive down-marks).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one health probe (0 = 1s).
	ProbeTimeout time.Duration
}

// Front is the fleet router: a stateless http.Handler speaking the same
// /v1 surface as a daemon. Each submission is normalized, keyed, and
// forwarded to the key's ring owner — or, for hot keys, spread over the
// key's replica set — and job handles are forwarded to the daemon that
// issued them via an ID prefix ("p2~j000017-4c1ea3b0" lives on peer 2).
//
// The front holds no results and runs no engines; it can be restarted
// freely, and N fronts over the same peer list route identically
// (placement is a pure function of key and peer set).
type Front struct {
	cfg     FrontConfig
	ring    *Ring
	peers   []*frontPeer // indexed by position in ring.Peers() order
	hot     *hotTracker
	handler http.Handler // the mux behind the request-ID middleware
	start   time.Time

	metrics    *obs.Registry
	subSeconds map[string]*obs.Histogram // outcome label → submit latency
	tracer     *obs.Tracer

	// Registry counters (see wireMetrics): the only store of each count.
	forwards   *obs.Counter
	failovers  *obs.Counter
	promotions *obs.Counter

	stop      chan struct{}
	closeOnce sync.Once
	probeWG   sync.WaitGroup
}

// frontPeer is one routed-to daemon plus its health state: the passive
// down-mark forwards leave behind, and the active probe verdict the
// background health loop maintains.
type frontPeer struct {
	index  int
	url    string
	client *service.Client

	// Registry counters, labelled by peer URL (see wireMetrics).
	routed     *obs.Counter
	errors     *obs.Counter
	probes     *obs.Counter
	probeFails *obs.Counter

	mu        sync.Mutex
	downUntil time.Time
	// Active probe state. probeChecked stays false until the first probe
	// completes, so a just-started front routes normally instead of
	// treating the whole fleet as unverified.
	probeChecked bool
	probeOK      bool
}

// NewFront validates the configuration and builds the router.
func NewFront(cfg FrontConfig) (*Front, error) {
	ring, err := NewRing(cfg.Peers, 0)
	if err != nil {
		return nil, err
	}
	if cfg.HotThreshold == 0 {
		cfg.HotThreshold = 32
	}
	if cfg.HotReplicas <= 0 {
		cfg.HotReplicas = 2
	}
	if n := len(ring.Peers()); cfg.HotReplicas > n {
		cfg.HotReplicas = n
	}
	if cfg.RetryDead <= 0 {
		cfg.RetryDead = 3 * time.Second
	}
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = 2 * time.Second
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = time.Second
	}
	f := &Front{
		cfg:    cfg,
		ring:   ring,
		hot:    newHotTracker(),
		start:  time.Now(),
		tracer: obs.NewTracer("front", "front"),
		stop:   make(chan struct{}),
	}
	for i, u := range ring.Peers() {
		f.peers = append(f.peers, &frontPeer{index: i, url: u, client: service.NewClient(u)})
	}
	f.wireMetrics()

	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", f.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", f.handleForward)
	mux.HandleFunc("DELETE /v1/jobs/{id}", f.handleForward)
	mux.HandleFunc("GET /v1/jobs/{id}/events", f.handleEvents)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", f.handleJobTrace)
	mux.HandleFunc("GET /v1/trace/{rid}", f.handleTrace)
	mux.HandleFunc("GET /v1/healthz", f.handleHealthz)
	mux.HandleFunc("GET /v1/statsz", f.handleStatsz)
	mux.Handle("GET /metrics", f.metrics.Handler())
	f.handler = f.tracer.Middleware(mux)

	if cfg.ProbeInterval > 0 {
		f.probeWG.Add(1)
		go f.probeLoop()
	}
	return f, nil
}

// ServeHTTP implements http.Handler. Like the daemon, the front serves
// behind the tracer's request-ID middleware, so the spans it records
// (forwarding decisions, failovers) and the spans the owner and peers
// record all land under the one ID the client saw.
func (f *Front) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	f.handler.ServeHTTP(w, r)
}

// Close stops the background health prober. Safe to call more than once;
// a front is otherwise stateless and needs no other teardown.
func (f *Front) Close() {
	f.closeOnce.Do(func() { close(f.stop) })
	f.probeWG.Wait()
}

// probeLoop actively probes every peer's /v1/healthz on the configured
// interval — once immediately at start, so a front never routes blind
// longer than one probe round. Active probing is the primary health
// signal: it finds dead peers with no forward traffic to trip the
// passive marks, and it revives wrongly-marked peers the moment they
// answer, instead of after RetryDead expires.
func (f *Front) probeLoop() {
	defer f.probeWG.Done()
	t := time.NewTicker(f.cfg.ProbeInterval)
	defer t.Stop()
	for {
		f.probeAll()
		select {
		case <-f.stop:
			return
		case <-t.C:
		}
	}
}

// probeAll probes peers concurrently so one hung peer cannot starve the
// round past its own timeout.
func (f *Front) probeAll() {
	var wg sync.WaitGroup
	for _, p := range f.peers {
		wg.Add(1)
		go func(p *frontPeer) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), f.cfg.ProbeTimeout)
			err := p.client.Health(ctx)
			cancel()
			p.probes.Inc()
			if err != nil {
				p.probeFails.Inc()
			}
			p.mu.Lock()
			p.probeChecked = true
			p.probeOK = err == nil
			if err == nil {
				// A live answer overrides any passive down-mark.
				p.downUntil = time.Time{}
			}
			p.mu.Unlock()
		}(p)
	}
	wg.Wait()
}

// Ring exposes the routing ring.
func (f *Front) Ring() *Ring { return f.ring }

// peerByURL returns the frontPeer for a ring peer name.
func (f *Front) peerByURL(url string) *frontPeer {
	for _, p := range f.peers {
		if p.url == url {
			return p
		}
	}
	return nil
}

// up reports whether the peer is routable: its last active probe (once
// one has run) must have succeeded, and no passive down-mark may be
// live. The probe verdict is primary — a peer failing probes is down
// even with no forward traffic — and the passive mark is the fast path
// that reacts to a failed forward before the next probe round.
func (p *frontPeer) up(now time.Time) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.upLocked(now)
}

func (p *frontPeer) upLocked(now time.Time) bool {
	if p.probeChecked && !p.probeOK {
		return false
	}
	return now.After(p.downUntil)
}

// markDown records a transport failure.
func (p *frontPeer) markDown(until time.Time) {
	p.errors.Inc()
	p.mu.Lock()
	p.downUntil = until
	p.mu.Unlock()
}

// markRouted records a successful forward (and clears down state).
func (p *frontPeer) markRouted() {
	p.routed.Inc()
	p.mu.Lock()
	p.downUntil = time.Time{}
	p.mu.Unlock()
}

// handleSubmit routes a submission to its owner (or replica set).
func (f *Front) handleSubmit(w http.ResponseWriter, r *http.Request) {
	spec, ok := service.DecodeSpec(w, r)
	if !ok {
		return
	}
	norm, err := spec.Normalize()
	if err != nil {
		service.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	key := norm.Key()

	// Candidate order: the full ring ownership sequence, rotated for hot
	// keys so a promoted key's requests spread over its first
	// HotReplicas owners. Everything after the preferred target stays in
	// ring order — it is the failover sequence.
	now := time.Now()
	candidates := f.ring.Owners(key, len(f.peers))
	n := f.hot.bump(key, now)
	promoted := f.cfg.HotThreshold > 0 && n >= uint64(f.cfg.HotThreshold) && f.cfg.HotReplicas > 1
	if promoted {
		k := f.cfg.HotReplicas
		pick := int(n) % k
		candidates[0], candidates[pick] = candidates[pick], candidates[0]
		f.promotions.Inc()
		obs.Record(r.Context(), "hot_promote", now, map[string]string{
			"key": key[:8], "target": candidates[0],
		})
	}

	v, peer, err := f.forwardSubmit(r.Context(), candidates, norm, now)
	if err != nil {
		f.subSeconds[service.OutcomeError].Observe(time.Since(now).Seconds())
		if code, ok := service.StatusCode(err); ok {
			if code == http.StatusTooManyRequests {
				w.Header().Set("Retry-After", "1")
			}
			service.WriteError(w, code, strings.TrimPrefix(err.Error(), "service: "))
			return
		}
		service.WriteError(w, http.StatusBadGateway, "fleet: no reachable owner: "+err.Error())
		return
	}
	f.subSeconds[submitOutcome(v)].Observe(time.Since(now).Seconds())
	v.ID = fmt.Sprintf("p%d~%s", peer.index, v.ID)
	status := http.StatusAccepted
	if v.Status.Terminal() {
		status = http.StatusOK
	}
	service.WriteJSON(w, status, v)
}

// submitOutcome classifies a forwarded submit's response for the front's
// latency histogram: where the owner got (or will get) the bytes.
func submitOutcome(v service.JobView) string {
	switch {
	case v.Status == service.StatusFailed || v.Status == service.StatusCanceled:
		return service.OutcomeError
	case v.Cached:
		return service.OutcomeHit
	case v.PeerFetched:
		return service.OutcomePeerFetched
	case v.Dedup:
		return service.OutcomeInflightJoin
	default:
		// Accepted and still running: the submit itself was a miss at
		// forward time (terminal outcome lands on the owner's histogram).
		return service.OutcomeMiss
	}
}

// forwardSubmit tries candidates in order, skipping peers marked down
// (unless every candidate is down — then it tries them all anyway: a
// wrong "down" mark must not black-hole traffic). Transport errors fail
// over to the next owner; daemon HTTP errors (400, 429, ...) are the
// daemon's answer and propagate immediately. Failover is safe precisely
// because results are location-independent: any owner computes the same
// bytes, so retrying elsewhere can change latency, never content.
func (f *Front) forwardSubmit(ctx context.Context, candidates []string, norm service.JobSpec, now time.Time) (service.JobView, *frontPeer, error) {
	var lastErr error
	for pass := 0; pass < 2; pass++ {
		for i, url := range candidates {
			p := f.peerByURL(url)
			if pass == 0 && !p.up(now) {
				continue
			}
			attempt := time.Now()
			v, err := p.client.Submit(ctx, norm)
			if err == nil {
				obs.Record(ctx, "forward", attempt, map[string]string{
					"peer": url, "failover": strconv.FormatBool(i > 0),
				})
				p.markRouted()
				f.forwards.Inc()
				if i > 0 {
					f.failovers.Inc()
				}
				return v, p, nil
			}
			if _, isHTTP := service.StatusCode(err); isHTTP {
				// The daemon answered; its answer stands.
				p.markRouted()
				return service.JobView{}, nil, err
			}
			obs.Record(ctx, "forward_failed", attempt, map[string]string{"peer": url})
			p.markDown(now.Add(f.cfg.RetryDead))
			lastErr = err
			if ctx.Err() != nil {
				return service.JobView{}, nil, lastErr
			}
		}
		// Second pass only if the first skipped everything as down.
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("no candidates")
	}
	return service.JobView{}, nil, lastErr
}

// resolveJobID splits a front job ID ("p2~j000017-...") into its peer
// and the daemon-local ID.
func (f *Front) resolveJobID(id string) (*frontPeer, string, bool) {
	prefix, rest, ok := strings.Cut(id, "~")
	if !ok || len(prefix) < 2 || prefix[0] != 'p' {
		return nil, "", false
	}
	idx, err := strconv.Atoi(prefix[1:])
	if err != nil || idx < 0 || idx >= len(f.peers) {
		return nil, "", false
	}
	return f.peers[idx], rest, true
}

// proxy relays the request for a front job handle to the daemon that
// issued it: resolve the "p<idx>~" prefix, send {method} /v1/jobs/{local
// id}{suffix} through the peer's client (which forwards the request ID,
// so the owner's spans join the front's trace), and update the peer's
// passive health marks. It returns the daemon's 2xx response for the
// caller to relay and close. On any other outcome — unknown handle,
// unreachable peer, or a non-2xx answer, which passes through verbatim
// (a 304 with its ETag and no body) — it has answered the client itself
// and returns ok=false.
func (f *Front) proxy(w http.ResponseWriter, r *http.Request, suffix string, header http.Header) (p *frontPeer, resp *http.Response, ok bool) {
	p, localID, ok := f.resolveJobID(r.PathValue("id"))
	if !ok {
		service.WriteError(w, http.StatusNotFound, "no such job (fleet IDs look like p0~j000001-...)")
		return nil, nil, false
	}
	resp, err := p.client.Send(r.Context(), r.Method, "/v1/jobs/"+localID+suffix, nil, header)
	if err != nil {
		p.markDown(time.Now().Add(f.cfg.RetryDead))
		service.WriteError(w, http.StatusBadGateway, "fleet: peer unreachable: "+err.Error())
		return nil, nil, false
	}
	p.markRouted()
	if et := resp.Header.Get("ETag"); et != "" {
		w.Header().Set("ETag", et)
	}
	if resp.StatusCode >= 300 {
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusNotModified {
			w.Header().Set("Content-Type", "application/json")
		}
		w.WriteHeader(resp.StatusCode)
		io.Copy(w, resp.Body)
		return nil, nil, false
	}
	return p, resp, true
}

// handleForward proxies GET/DELETE /v1/jobs/{id} to the issuing daemon,
// rewriting the job ID in the response and passing the query string
// (?wait=) and conditional headers through untouched.
func (f *Front) handleForward(w http.ResponseWriter, r *http.Request) {
	suffix := ""
	if r.URL.RawQuery != "" {
		suffix = "?" + r.URL.RawQuery
	}
	var header http.Header
	if inm := r.Header.Get("If-None-Match"); inm != "" {
		header = http.Header{"If-None-Match": {inm}}
	}
	p, resp, ok := f.proxy(w, r, suffix, header)
	if !ok {
		return
	}
	defer resp.Body.Close()
	var v service.JobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		service.WriteError(w, http.StatusBadGateway, "fleet: bad peer response: "+err.Error())
		return
	}
	v.ID = fmt.Sprintf("p%d~%s", p.index, v.ID)
	service.WriteJSON(w, resp.StatusCode, v)
}

// handleEvents streams a job's SSE feed through from the issuing
// daemon. Event payloads carry no job IDs, so the bytes pass through
// verbatim, flushed as they arrive.
func (f *Front) handleEvents(w http.ResponseWriter, r *http.Request) {
	flusher, canFlush := w.(http.Flusher)
	if !canFlush {
		service.WriteError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	_, resp, ok := f.proxy(w, r, "/events", nil)
	if !ok {
		return
	}
	defer resp.Body.Close()
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()
	buf := make([]byte, 32<<10)
	for {
		n, err := resp.Body.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return
			}
			flusher.Flush()
		}
		if err != nil {
			return
		}
	}
}

// FrontPeerHealth is one peer's entry in the front's /v1/healthz.
type FrontPeerHealth struct {
	URL string `json:"url"`
	// Up combines the active probe verdict (primary) with the passive
	// forward down-marks (fast path).
	Up bool `json:"up"`
	// Probed is false until the background prober has reached this peer
	// at least once (or probing is disabled); ProbeOK is meaningless
	// until then.
	Probed  bool `json:"probed"`
	ProbeOK bool `json:"probe_ok"`
}

func (f *Front) handleHealthz(w http.ResponseWriter, r *http.Request) {
	now := time.Now()
	peers := make([]FrontPeerHealth, len(f.peers))
	anyUp := false
	for i, p := range f.peers {
		p.mu.Lock()
		up := p.upLocked(now)
		peers[i] = FrontPeerHealth{URL: p.url, Up: up, Probed: p.probeChecked, ProbeOK: p.probeOK}
		p.mu.Unlock()
		anyUp = anyUp || up
	}
	service.WriteJSON(w, http.StatusOK, map[string]any{
		"ok":        anyUp,
		"role":      "front",
		"uptime_ms": time.Since(f.start).Milliseconds(),
		"peers":     peers,
	})
}

// FrontPeerStats is one peer's routing counters.
type FrontPeerStats struct {
	URL    string `json:"url"`
	Up     bool   `json:"up"`
	Routed uint64 `json:"routed"`
	Errors uint64 `json:"errors"`
	// Probes/ProbeFails count the background health probes sent to this
	// peer and how many failed.
	Probes     uint64 `json:"probes"`
	ProbeFails uint64 `json:"probe_fails"`
}

// FrontStats is the front's /v1/statsz document.
type FrontStats struct {
	Role          string           `json:"role"`
	UptimeMS      int64            `json:"uptime_ms"`
	RingSize      int              `json:"ring_size"`
	VNodes        int              `json:"vnodes"`
	HotThreshold  int              `json:"hot_threshold"`
	HotReplicas   int              `json:"hot_replicas"`
	HotTracked    int              `json:"hot_tracked"`
	HotPromotions uint64           `json:"hot_promotions"`
	Forwards      uint64           `json:"forwards"`
	Failovers     uint64           `json:"failovers"`
	Peers         []FrontPeerStats `json:"peers"`
}

// Stats snapshots the front.
func (f *Front) Stats() FrontStats {
	now := time.Now()
	st := FrontStats{
		Role:          "front",
		UptimeMS:      time.Since(f.start).Milliseconds(),
		RingSize:      f.ring.Size(),
		VNodes:        f.ring.VNodes(),
		HotThreshold:  f.cfg.HotThreshold,
		HotReplicas:   f.cfg.HotReplicas,
		HotTracked:    f.hot.size(),
		HotPromotions: f.promotions.Value(),
		Forwards:      f.forwards.Value(),
		Failovers:     f.failovers.Value(),
	}
	for _, p := range f.peers {
		st.Peers = append(st.Peers, FrontPeerStats{
			URL:        p.url,
			Up:         p.up(now),
			Routed:     p.routed.Value(),
			Errors:     p.errors.Value(),
			Probes:     p.probes.Value(),
			ProbeFails: p.probeFails.Value(),
		})
	}
	return st
}

func (f *Front) handleStatsz(w http.ResponseWriter, r *http.Request) {
	service.WriteJSON(w, http.StatusOK, f.Stats())
}
