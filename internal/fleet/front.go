package fleet

import (
	"bytes"
	"context"
	"errors"
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
	// ProbeInterval is the active health-probe period: the front probes
	// every peer's /v1/healthz in the background and routes around peers
	// whose probes fail, independent of forward traffic (0 = 2s; < 0
	// disables probing, leaving only the passive down-marks).
	ProbeInterval time.Duration
}

// probeTimeout bounds one health probe.
const probeTimeout = time.Second

// retryDead is how long a peer that failed a forward is skipped before
// being retried, unless a probe answers first.
const retryDead = 3 * time.Second

// reprobeFailed is how soon a peer whose last probe failed is probed
// again, whatever ProbeInterval is: a peer that missed one probe must not
// stay unroutable for a whole interval once it answers again.
const reprobeFailed = 250 * time.Millisecond

// Front is the fleet router: a stateless http.Handler speaking the same
// /v1 surface as a daemon. Each submission is normalized, keyed, and
// forwarded to the key's ring owner — the next owner in ring order only
// when the owner is down — and job handles are forwarded to the daemon
// that issued them via an ID prefix ("p2~j000017-4c1ea3b0" lives on
// peer 2).
//
// The front holds no results and runs no engines; it can be restarted
// freely, and N fronts over the same peer list route identically
// (placement is a pure function of key and peer set).
type Front struct {
	cfg     FrontConfig
	ring    *Ring
	peers   []*frontPeer // indexed by position in ring.Peers() order
	handler http.Handler // the mux behind the request-ID middleware
	start   time.Time

	metrics    *obs.Registry
	subSeconds map[string]*obs.Histogram // outcome label → submit latency
	tracer     *obs.Tracer

	// Registry counters (see wireMetrics): the only store of each count.
	forwards  *obs.Counter
	failovers *obs.Counter

	stop      chan struct{}
	closeOnce sync.Once
	probeWG   sync.WaitGroup
}

// frontPeer is one routed-to daemon plus its health state: the passive
// down-mark forwards leave behind, and the active probe verdict the
// background health loop maintains.
type frontPeer struct {
	url    string
	client *service.Client
	// idHead is viewHead and the peer's handle prefix, "p<index>~",
	// which resolveJobID splits again.
	idHead []byte

	// Registry counters, labelled by peer URL (see wireMetrics). routed
	// counts successful submit forwards only.
	routed     *obs.Counter
	errors     *obs.Counter
	probes     *obs.Counter
	probeFails *obs.Counter

	mu        sync.Mutex
	downUntil time.Time
	// marks counts down-marks, so a probe clears only a mark placed
	// before it was sent: an answer that was in flight when a newer
	// forward failed says nothing about the peer since.
	marks uint64
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
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = 2 * time.Second
	}
	f := &Front{
		cfg:    cfg,
		ring:   ring,
		start:  time.Now(),
		tracer: obs.NewTracer("front", "front"),
		stop:   make(chan struct{}),
	}
	for i, u := range ring.Peers() {
		f.peers = append(f.peers, &frontPeer{
			url:    u,
			client: service.NewClient(u),
			idHead: []byte(viewHead + "p" + strconv.Itoa(i) + "~"),
		})
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
// longer than one probe round — and re-probes the peers whose last probe
// failed every reprobeFailed in between. Active probing is the primary
// health signal: it finds dead peers with no forward traffic to trip the
// passive marks, and it revives wrongly-marked peers the moment they
// answer, instead of after retryDead expires.
func (f *Front) probeLoop() {
	defer f.probeWG.Done()
	t := time.NewTicker(f.cfg.ProbeInterval)
	defer t.Stop()
	f.probe(f.peers)
	for {
		var retry <-chan time.Time
		failed := f.probeFailed()
		if len(failed) > 0 {
			retry = time.After(reprobeFailed)
		}
		select {
		case <-f.stop:
			return
		case <-t.C:
			f.probe(f.peers)
		case <-retry:
			f.probe(failed)
		}
	}
}

// probeFailed returns the peers whose last probe failed.
func (f *Front) probeFailed() []*frontPeer {
	var failed []*frontPeer
	for _, p := range f.peers {
		p.mu.Lock()
		if p.probeChecked && !p.probeOK {
			failed = append(failed, p)
		}
		p.mu.Unlock()
	}
	return failed
}

// probe probes peers concurrently so one hung peer cannot starve the
// round past its own timeout.
func (f *Front) probe(peers []*frontPeer) {
	var wg sync.WaitGroup
	for _, p := range peers {
		wg.Add(1)
		go func(p *frontPeer) {
			defer wg.Done()
			p.mu.Lock()
			marks := p.marks
			p.mu.Unlock()
			ctx, cancel := context.WithTimeout(context.Background(), probeTimeout)
			err := p.client.Health(ctx)
			cancel()
			p.probes.Inc()
			if err != nil {
				p.probeFails.Inc()
			}
			p.mu.Lock()
			p.probeChecked = true
			p.probeOK = err == nil
			if err == nil && p.marks == marks {
				// A live answer overrides any passive down-mark placed
				// before the probe was sent.
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
	p.marks++
	p.mu.Unlock()
}

// markAnswered records that the peer answered a forwarded or proxied
// request. Any answer clears a passive down-mark; a served one (status
// below 400) also clears a failed probe verdict, as a passing probe
// would.
func (p *frontPeer) markAnswered(served bool) {
	p.mu.Lock()
	p.downUntil = time.Time{}
	if served {
		p.probeOK = true
	}
	p.mu.Unlock()
}

// viewHead is how every job view a member writes opens: the encoder's
// form puts the ID first.
const viewHead = `{"id":"`

// relay writes a member's answer as the member wrote it — status,
// Content-Type, Cache-Control, ETag, Retry-After and body — and closes
// it; every answer the front passes on goes through it. With view set, a
// 2xx body is a job view: read whole and decoded as the client reads it,
// it goes out with the peer's handle spliced in front of the local ID,
// or as a 502 (ok false) if it cannot be decoded or does not open with
// viewHead. Any other body is streamed, flushed as it arrives.
func (p *frontPeer) relay(w http.ResponseWriter, resp *http.Response, view bool) (v service.JobView, ok bool) {
	defer resp.Body.Close()
	var body []byte
	if view = view && resp.StatusCode < 300; view {
		var err error
		v, body, err = service.ReadJobView(resp)
		if err == nil && !bytes.HasPrefix(body, []byte(viewHead)) {
			err = errors.New("job view does not open with its id")
		}
		if err != nil {
			service.WriteError(w, http.StatusBadGateway, "fleet: bad peer response: "+err.Error())
			return v, false
		}
	}
	h := w.Header()
	for _, k := range [...]string{"Content-Type", "Cache-Control", "ETag", "Retry-After"} {
		if s := resp.Header.Get(k); s != "" {
			h.Set(k, s)
		}
	}
	if view {
		h.Set("Content-Length", strconv.Itoa(len(p.idHead)+len(body)-len(viewHead)))
		w.WriteHeader(resp.StatusCode)
		w.Write(p.idHead)
		w.Write(body[len(viewHead):])
		return v, true
	}
	if resp.ContentLength >= 0 {
		h.Set("Content-Length", strconv.FormatInt(resp.ContentLength, 10))
	}
	w.WriteHeader(resp.StatusCode)
	rc := http.NewResponseController(w)
	for buf := make([]byte, 32<<10); ; {
		rc.Flush()
		n, err := resp.Body.Read(buf)
		w.Write(buf[:n])
		if err != nil {
			return v, true
		}
	}
}

// handleSubmit routes a submission to its ring owner, failing over in
// ring order, and relays the owner's answer.
func (f *Front) handleSubmit(w http.ResponseWriter, r *http.Request) {
	norm, key, ok := service.DecodeSpec(w, r)
	if !ok {
		return
	}

	now := time.Now()
	candidates := f.ring.Owners(key, len(f.peers))
	resp, peer, err := f.forwardSubmit(r.Context(), candidates, norm, now)
	if err != nil {
		f.subSeconds[service.OutcomeError].Observe(time.Since(now).Seconds())
		service.WriteError(w, http.StatusBadGateway, "fleet: no reachable owner: "+err.Error())
		return
	}
	outcome := service.OutcomeError
	if v, ok := peer.relay(w, resp, true); ok && resp.StatusCode < 300 {
		outcome = submitOutcome(v)
	}
	f.subSeconds[outcome].Observe(time.Since(now).Seconds())
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

// forwardSubmit tries candidates in order, skipping peers marked down,
// then tries the skipped ones as a last resort: a wrong "down" mark must
// not black-hole traffic. A peer is dialled at most once per submit, so
// one that just failed is never re-dialled. Transport errors fail over
// to the next owner; any HTTP answer (202, 200, 400, 429, ...) is the
// daemon's and comes back for the caller to relay and close. Failover is
// safe precisely because results are location-independent: any owner
// computes the same bytes, so retrying elsewhere can change latency,
// never content.
func (f *Front) forwardSubmit(ctx context.Context, candidates []string, norm service.JobSpec, now time.Time) (*http.Response, *frontPeer, error) {
	var lastErr error
	tried := make([]bool, len(candidates))
	for pass := 0; pass < 2; pass++ {
		for i, url := range candidates {
			p := f.peerByURL(url)
			if tried[i] || pass == 0 && !p.up(now) {
				continue
			}
			tried[i] = true
			attempt := time.Now()
			resp, err := p.client.Send(ctx, http.MethodPost, "/v1/jobs", norm, nil)
			if err == nil {
				p.markAnswered(resp.StatusCode < 400)
				if resp.StatusCode < 300 {
					obs.Record(ctx, "forward", attempt, map[string]string{
						"peer": url, "failover": strconv.FormatBool(i > 0),
					})
					p.routed.Inc()
					f.forwards.Inc()
					if i > 0 {
						f.failovers.Inc()
					}
				}
				return resp, p, nil
			}
			obs.Record(ctx, "forward_failed", attempt, map[string]string{"peer": url})
			p.markDown(now.Add(retryDead))
			lastErr = err
			if ctx.Err() != nil {
				return nil, nil, lastErr
			}
		}
		// The second pass dials only the peers the first skipped as down.
	}
	if lastErr == nil {
		lastErr = errors.New("no candidates")
	}
	return nil, nil, lastErr
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

// proxy sends the request for a front job handle to the daemon that
// issued it: resolve the "p<idx>~" prefix, send {method} /v1/jobs/{local
// id}{suffix} through the peer's client (which forwards the request ID,
// so the owner's spans join the front's trace), and update the peer's
// passive health marks. It returns the daemon's 2xx response for the
// caller to relay and close. On any other outcome — unknown handle,
// unreachable peer, or a non-2xx answer, which it relays (a 304 with its
// ETag and no body) — it has answered the client itself and returns
// ok=false.
func (f *Front) proxy(w http.ResponseWriter, r *http.Request, suffix string, header http.Header) (p *frontPeer, resp *http.Response, ok bool) {
	p, localID, ok := f.resolveJobID(r.PathValue("id"))
	if !ok {
		service.WriteError(w, http.StatusNotFound, "no such job (fleet IDs look like p0~j000001-...)")
		return nil, nil, false
	}
	resp, err := p.client.Send(r.Context(), r.Method, "/v1/jobs/"+localID+suffix, nil, header)
	if err != nil {
		p.markDown(time.Now().Add(retryDead))
		service.WriteError(w, http.StatusBadGateway, "fleet: peer unreachable: "+err.Error())
		return nil, nil, false
	}
	p.markAnswered(resp.StatusCode < 400)
	if resp.StatusCode >= 300 {
		p.relay(w, resp, false)
		return nil, nil, false
	}
	return p, resp, true
}

// handleForward proxies GET/DELETE /v1/jobs/{id} to the issuing daemon,
// passing the query string (?wait=) and conditional headers through
// untouched, and relays the job view with the front's handle in it.
func (f *Front) handleForward(w http.ResponseWriter, r *http.Request) {
	suffix := ""
	if r.URL.RawQuery != "" {
		suffix = "?" + r.URL.RawQuery
	}
	var header http.Header
	if inm := r.Header.Get("If-None-Match"); inm != "" {
		header = http.Header{"If-None-Match": {inm}}
	}
	if p, resp, ok := f.proxy(w, r, suffix, header); ok {
		p.relay(w, resp, true)
	}
}

// handleEvents streams a job's SSE feed through from the issuing
// daemon. Event payloads carry no job IDs, so the bytes pass through
// verbatim, flushed as they arrive.
func (f *Front) handleEvents(w http.ResponseWriter, r *http.Request) {
	if p, resp, ok := f.proxy(w, r, "/events", nil); ok {
		p.relay(w, resp, false)
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
	Role      string           `json:"role"`
	UptimeMS  int64            `json:"uptime_ms"`
	RingSize  int              `json:"ring_size"`
	VNodes    int              `json:"vnodes"`
	Forwards  uint64           `json:"forwards"`
	Failovers uint64           `json:"failovers"`
	Peers     []FrontPeerStats `json:"peers"`
}

// Stats snapshots the front.
func (f *Front) Stats() FrontStats {
	now := time.Now()
	st := FrontStats{
		Role:      "front",
		UptimeMS:  time.Since(f.start).Milliseconds(),
		RingSize:  f.ring.Size(),
		VNodes:    f.ring.VNodes(),
		Forwards:  f.forwards.Value(),
		Failovers: f.failovers.Value(),
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
