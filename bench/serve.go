package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/link"
	"repro/internal/runner"
	"repro/internal/service"
)

// stack is an in-process serving stack on real loopback TCP: one daemon,
// or a fleet front over three members wired with peer fetch.
type stack struct {
	url       string // what clients talk to
	servers   []*service.Server
	listeners []*httptest.Server
	front     *fleet.Front
	aliases   []string // memberAlias keys to drop on close
}

const fleetMembers = 3

// Fleet members listen on ephemeral loopback ports but are known to the
// ring, the front and each other by stable names: ring placement hashes
// the peer URLs, and it must not change from run to run. memberAlias maps
// "name:80" to the listener's address for every client in this process
// (they all dial through http.DefaultTransport).
var (
	memberAlias sync.Map
	stacks      atomic.Int64 // numbers the fleets booted, so live ones never share a name
)

func init() {
	dialer := &net.Dialer{Timeout: 30 * time.Second, KeepAlive: 30 * time.Second}
	http.DefaultTransport.(*http.Transport).DialContext = func(ctx context.Context, network, addr string) (net.Conn, error) {
		if real, ok := memberAlias.Load(addr); ok {
			addr = real.(string)
		}
		return dialer.DialContext(ctx, network, addr)
	}
}

// bootStack starts the daemons with their default configuration. wrap,
// when non-nil, wraps the handler the clients talk to.
func bootStack(fleetMode bool, wrap func(http.Handler) http.Handler) (*stack, error) {
	s := &stack{}
	serve := func(h http.Handler, wrapped bool) string {
		if wrapped && wrap != nil {
			h = wrap(h)
		}
		ts := httptest.NewServer(h)
		s.listeners = append(s.listeners, ts)
		return ts.URL
	}
	if !fleetMode {
		srv, err := service.New(service.Config{})
		if err != nil {
			return nil, err
		}
		s.servers = []*service.Server{srv}
		s.url = serve(srv, true)
		return s, nil
	}
	// Member URLs exist only once the listeners are up, so each daemon's
	// PeerFetch is a closure over a fetcher slot filled afterwards.
	fetchers := make([]*fleet.Fetcher, fleetMembers)
	var urls []string
	fleetNo := stacks.Add(1)
	for i := 0; i < fleetMembers; i++ {
		srv, err := service.New(service.Config{
			PeerFetch: func(ctx context.Context, key string) ([]byte, bool) {
				if fetchers[i] == nil {
					return nil, false
				}
				return fetchers[i].Fetch(ctx, key)
			},
			FleetInfo: &service.FleetInfo{Peers: fleetMembers},
		})
		if err != nil {
			s.close()
			return nil, err
		}
		s.servers = append(s.servers, srv)
		name := fmt.Sprintf("member%d.fleet%d.invalid", i, fleetNo)
		memberAlias.Store(name+":80", strings.TrimPrefix(serve(srv, false), "http://"))
		s.aliases = append(s.aliases, name+":80")
		urls = append(urls, "http://"+name)
	}
	for i := range fetchers {
		f, err := fleet.NewFetcher(fleet.FetchConfig{Self: urls[i], Peers: urls})
		if err != nil {
			s.close()
			return nil, err
		}
		fetchers[i] = f
	}
	front, err := fleet.NewFront(fleet.FrontConfig{Peers: urls})
	if err != nil {
		s.close()
		return nil, err
	}
	s.front = front
	s.url = serve(front, true)
	return s, nil
}

// close stops every listener and daemon and waits for them.
func (s *stack) close() {
	if s.front != nil {
		s.front.Close()
	}
	for _, ts := range s.listeners {
		ts.Close()
	}
	for _, srv := range s.servers {
		srv.Close()
	}
	for _, a := range s.aliases {
		memberAlias.Delete(a)
	}
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
}

// gridSpec is the job every request of the serving workloads asks for: a
// one-cell RXL grid. The job seed makes it a distinct cache key.
func gridSpec(seed uint64, n int) service.JobSpec {
	return service.JobSpec{
		Kind: service.KindGrid,
		Seed: seed,
		Grid: &core.Grid{Base: core.Config{Protocol: link.ProtocolRXL, Levels: 1, BER: 1e-6}, N: n},
	}
}

// libraryBytes computes a grid job's result document straight on the
// library, the way a daemon would: the reference served bytes must equal.
func libraryBytes(spec service.JobSpec) ([]byte, error) {
	norm, err := spec.Normalize()
	if err != nil {
		return nil, err
	}
	res, err := core.RunGrid(context.Background(), runner.Pool{Workers: runtime.GOMAXPROCS(0), BaseSeed: norm.Seed}, *norm.Grid)
	if err != nil {
		return nil, err
	}
	return json.Marshal(res)
}

// runJob is what a caller does: submit, and wait if the job was queued.
func runJob(ctx context.Context, cl *service.Client, spec service.JobSpec) (service.JobView, error) {
	v, err := cl.Submit(ctx, spec)
	if err == nil && !v.Status.Terminal() {
		v, err = cl.Wait(ctx, v.ID)
	}
	if err == nil && v.Status != service.StatusDone {
		err = fmt.Errorf("job %s %s: %s", v.ID, v.Status, v.Error)
	}
	return v, err
}

const (
	hotSet     = 64  // primed configurations; the default 256-entry cache holds them all
	hotSkew    = 1.2 // zipf exponent over the hot set
	missEvery  = 10  // one request in ten is a unique-seed miss
	serveBlock = 1000
	// Closed loop: callers of rxld wait for their reply before asking
	// again. Two clients, one per core the daemon shares with them.
	serveClients = 2
)

// serveWorkload drives the serving stack with a seed-derived request
// sequence. One operation is a block of requests, each block holding
// exactly one miss in ten, so blocks are alike and the median block is
// steady; request k of a run is the same request whatever the timing.
type serveWorkload struct {
	e         *env
	c         *checks
	fleetMode bool
	name      string

	st      *stack
	clients []*service.Client
	n       int // payloads per grid job
	block   int // requests per operation
	hot     []service.JobSpec
	hotBody [][]byte
	zipf    zipf
	next    int // index of the next unissued request

	mu       sync.Mutex
	hits     int
	total    int
	rejected int
	// misses keeps the first few computed results for verify.
	misses []servedMiss
	// pending are the traced block's misses awaiting fetchTraces.
	pending []tracedMiss
}

type servedMiss struct {
	spec service.JobSpec
	body []byte
}

func newServe(fleetMode bool, e *env, c *checks) *serveWorkload {
	w := &serveWorkload{e: e, c: c, fleetMode: fleetMode, name: "serve_mix",
		n:     e.scaled(2000, 20),
		block: missEvery * e.scaled(serveBlock/missEvery, 1),
		zipf:  newZipf(hotSet, hotSkew),
	}
	if fleetMode {
		w.name = "fleet_mix"
	}
	return w
}

func (w *serveWorkload) setup() error {
	var err error
	if w.st, err = bootStack(w.fleetMode, w.e.hooks.handler); err != nil {
		return err
	}
	for i := 0; i < serveClients; i++ {
		w.clients = append(w.clients, service.NewClient(w.st.url))
	}
	ctx := context.Background()
	for i := 0; i < hotSet; i++ {
		spec := gridSpec(derive(w.e.seed, "hot", i), w.n)
		v, err := runJob(ctx, w.clients[0], spec)
		if err != nil {
			return fmt.Errorf("priming hot key %d: %w", i, err)
		}
		w.hot = append(w.hot, spec)
		w.hotBody = append(w.hotBody, v.Result)
	}
	_, err = w.op(0, nil)
	return err
}

// request is the k-th request of the sequence: the spec and, for a hit,
// its hot-set rank (-1 for a miss).
func (w *serveWorkload) request(k int) (service.JobSpec, int) {
	if k%missEvery == int(derive(w.e.seed, "miss-slot", k/missEvery)%missEvery) {
		return gridSpec(derive(w.e.seed, "miss", k), w.n), -1
	}
	r := rng{s: derive(w.e.seed, "hit", k)}
	rank := w.zipf.draw(&r)
	return w.hot[rank], rank
}

// do issues request k, checks the reply and adds its samples to st, the
// block's shared record, under w.mu.
func (w *serveWorkload) do(k int, cl *service.Client, rec *recorder, st *opStat) {
	spec, rank := w.request(k)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	id := 0
	if rec != nil {
		id = rec.start(0, "request")
	}
	t0 := time.Now()
	v, err := runJob(ctx, cl, spec)
	lat := time.Since(t0)
	if rec != nil {
		rec.end(id)
	}

	w.mu.Lock()
	defer w.mu.Unlock()
	w.total++
	w.c.check(err == nil, "%s request %d: %v", w.name, k, err)
	if err != nil {
		if service.IsQueueFull(err) {
			w.rejected++
		}
		return
	}
	if rank >= 0 {
		w.c.check(bytes.Equal(v.Result, w.hotBody[rank]), "%s request %d: hot key %d served different bytes", w.name, k, rank)
	} else if len(w.misses) < 8 {
		w.misses = append(w.misses, servedMiss{spec, v.Result})
	}
	if v.Cached {
		w.hits++
		st.sample("hit_us", float64(lat.Nanoseconds())/1e3)
		return
	}
	st.sample("miss_ms", lat.Seconds()*1e3)
	if rec != nil {
		w.pending = append(w.pending, tracedMiss{v.ID, id, lat})
	}
}

// tracedMiss is a computed request of a traced block whose server-side
// spans are still to be fetched.
type tracedMiss struct {
	jobID string
	span  int // the request's span in the recorder
	lat   time.Duration
}

// fetchTraces asks the daemon for the spans it recorded for each pending
// miss and splits the client-observed latency by them. It runs after the
// block's clock has stopped, so fetching costs the block nothing.
func (w *serveWorkload) fetchTraces(rec *recorder, st *opStat) {
	ctx := context.Background()
	for _, m := range w.pending {
		tv, err := w.clients[0].JobTrace(ctx, m.jobID)
		if err != nil {
			continue // the daemon keeps a bounded trace log; a lost trace is a lost sample
		}
		var server time.Duration
		for _, sp := range tv.Spans {
			d := time.Duration(sp.DurUS) * time.Microsecond
			rec.add(m.span, sp.Service+"."+sp.Name, time.UnixMicro(sp.StartUS), d, sp.Attrs)
			switch sp.Name {
			case "queue_wait", "run", "cache_write":
				st.sample(sp.Name+"_us", float64(sp.DurUS))
				server += d
			}
		}
		st.sample("miss_residual_us", float64((m.lat-server).Nanoseconds())/1e3)
	}
	w.pending = nil
}

func (w *serveWorkload) op(_ int, rec *recorder) (opStat, error) {
	base := w.next
	w.next += w.block
	st := opStat{units: float64(w.block)}
	var idx atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for _, cl := range w.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := int(idx.Add(1)) - 1; j < w.block; j = int(idx.Add(1)) - 1 {
				w.do(base+j, cl, rec, &st)
			}
		}()
	}
	wg.Wait()
	st.dur = time.Since(t0)
	if rec != nil {
		w.fetchTraces(rec, &st)
	}
	return st, nil
}

func (w *serveWorkload) latenciesMS(ops []opStat) []float64 {
	out := pooled(ops, "miss_ms")
	for _, us := range pooled(ops, "hit_us") {
		out = append(out, us/1e3)
	}
	return out
}

// verify checks fleet bytes == standalone bytes == library bytes: every
// hot key and the first few misses against a direct library run. (Both
// serving workloads check against the library, so they agree with each
// other.)
func (w *serveWorkload) verify() error {
	for i, spec := range w.hot {
		want, err := libraryBytes(spec)
		if err != nil {
			return err
		}
		w.c.check(bytes.Equal(want, w.hotBody[i]), "%s hot key %d: served bytes differ from the library's", w.name, i)
	}
	for i, m := range w.misses {
		want, err := libraryBytes(m.spec)
		if err != nil {
			return err
		}
		w.c.check(bytes.Equal(want, m.body), "%s miss %d: served bytes differ from the library's", w.name, i)
	}
	return nil
}

func (w *serveWorkload) close() {
	if w.st != nil {
		w.st.close()
	}
}

func (w *serveWorkload) layer(untraced, traced []opStat, _ map[string]float64) map[string]float64 {
	hits, misses := pooled(untraced, "hit_us"), pooled(untraced, "miss_ms")
	m := map[string]float64{
		"req_per_s":   median(throughputs(untraced)),
		"hit_p50_us":  median(hits),
		"miss_p50_ms": median(misses),
		// p95 leaves ten samples beyond it from 200 misses on, p99 from
		// 1000: the traced run's untraced half sees a few hundred.
		"miss_p95_ms":                  percentile(misses, 0.95),
		"service.hit_p99_us":           percentile(hits, 0.99),
		"service.miss_p99_ms":          percentile(misses, 0.99),
		"service.queue_wait_p50_us":    median(pooled(traced, "queue_wait_us")),
		"service.run_p50_ms":           median(pooled(traced, "run_us")) / 1e3,
		"service.cache_write_p50_us":   median(pooled(traced, "cache_write_us")),
		"service.miss_residual_p50_us": median(pooled(traced, "miss_residual_us")),
		"service.hit_ratio":            float64(w.hits) / float64(w.total),
		"service.rejected_429":         float64(w.rejected),
	}
	var routed []float64
	for _, srv := range w.st.servers {
		s := srv.Stats()
		m["service.dedup_hits"] += float64(s.DedupHits)
		if s.Fleet != nil {
			m["fleet.peer_hits"] += float64(s.Fleet.PeerHits)
			m["fleet.peer_misses"] += float64(s.Fleet.PeerMisses)
		}
	}
	if w.st.front != nil {
		for _, p := range w.st.front.Stats().Peers {
			routed = append(routed, float64(p.Routed))
		}
		sum, top := 0.0, 0.0
		for _, r := range routed {
			sum += r
			top = max(top, r)
		}
		m["fleet.owner_balance"] = top / (sum / float64(len(routed)))
	}
	return m
}
