package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/service"
)

// TestFleetTraceAssembly is the tracing acceptance pin: a traced miss
// that fails over to the next ring owner shows the whole fleet path — the
// front's forwarding span, that member's lifecycle and peer-probe spans,
// and the owner's cache-serve span — merged under the one request ID the
// client sent.
func TestFleetTraceAssembly(t *testing.T) {
	tf := startFleet(t, 3, FrontConfig{ProbeInterval: -1})
	ctx := context.Background()
	spec := gridSpec(53)
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	norm, err := spec.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	fc := service.NewClient(tf.frontTS.URL)

	// Warm the owner, then mark it down at the front only: the traced
	// repeat fails over to the next owner, which peer-fetches from the
	// (still live) owner.
	if _, err := fc.Run(ctx, spec); err != nil {
		t.Fatal(err)
	}
	tf.front.peerByURL(tf.front.Ring().Owner(norm.Key())).markDown(time.Now().Add(time.Hour))

	const rid = "trace00000000001"
	req, err := http.NewRequest(http.MethodPost, tf.frontTS.URL+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(obs.HeaderRequestID, rid)
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if got := resp.Header.Get(obs.HeaderRequestID); got != rid {
		t.Fatalf("front did not echo request id: got %q want %q", got, rid)
	}
	var traced service.JobView
	if err := json.NewDecoder(resp.Body).Decode(&traced); err != nil {
		resp.Body.Close()
		t.Fatal(err)
	}
	resp.Body.Close()
	if !traced.Status.Terminal() {
		if traced, err = fc.Wait(ctx, traced.ID); err != nil {
			t.Fatal(err)
		}
	}
	if !traced.PeerFetched {
		t.Fatalf("failed-over request was not a peer fetch: %+v", traced)
	}

	tv, err := fc.JobTrace(ctx, traced.ID)
	if err != nil {
		t.Fatal(err)
	}
	if tv.RequestID != rid {
		t.Fatalf("assembled trace request id %q, want the propagated %q", tv.RequestID, rid)
	}
	services := map[string]bool{}
	names := map[string]bool{}
	for _, sp := range tv.Spans {
		services[sp.Service] = true
		names[sp.Name] = true
	}
	if !services["front"] || !services["daemon"] {
		t.Fatalf("trace services = %v, want spans from both front and daemons", services)
	}
	for _, want := range []string{"forward", "submit", "peer_fetch", "peer_probe", "peer_serve", "finish"} {
		if !names[want] {
			t.Errorf("fleet trace missing %s span (got %v)", want, names)
		}
	}
	if names["run"] {
		t.Error("peer-fetched job traced an engine run")
	}
	for i := 1; i < len(tv.Spans); i++ {
		if tv.Spans[i].StartUS < tv.Spans[i-1].StartUS {
			t.Fatal("assembled trace not sorted by start time")
		}
	}

	// The rid-addressed route assembles the same picture.
	byRID, err := fc.TraceByRequestID(ctx, rid)
	if err != nil {
		t.Fatal(err)
	}
	if len(byRID.Spans) != len(tv.Spans) {
		t.Fatalf("trace by rid has %d spans, job trace has %d", len(byRID.Spans), len(tv.Spans))
	}
}

// TestFrontActiveProbing pins the probe loop as the primary health
// signal: a peer that dies with zero forward traffic is marked down
// within a few probe rounds, and a peer wrongly passive-marked down is
// revived by its next successful probe instead of waiting out its mark.
func TestFrontActiveProbing(t *testing.T) {
	tf := startFleet(t, 2, FrontConfig{
		ProbeInterval: 20 * time.Millisecond,
	})

	waitFor := func(desc string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			if cond() {
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
		t.Fatalf("timeout waiting for %s", desc)
	}
	peerStat := func(url string) FrontPeerStats {
		for _, p := range tf.front.Stats().Peers {
			if p.URL == url {
				return p
			}
		}
		t.Fatalf("peer %s missing from front stats", url)
		return FrontPeerStats{}
	}

	waitFor("first probe round", func() bool {
		a, b := peerStat(tf.urls[0]), peerStat(tf.urls[1])
		return a.Probes > 0 && b.Probes > 0 && a.Up && b.Up
	})

	// Kill member 0. No requests flow, so only the prober can notice.
	tf.daemons[0].Close()
	waitFor("probe to mark dead peer down", func() bool {
		p := peerStat(tf.urls[0])
		return !p.Up && p.ProbeFails > 0
	})
	if !peerStat(tf.urls[1]).Up {
		t.Fatal("live peer collaterally marked down")
	}

	// A stale passive mark on the live peer is erased by the next probe.
	p1 := tf.front.peerByURL(tf.urls[1])
	p1.markDown(time.Now().Add(time.Hour))
	waitFor("probe to revive wrongly-marked peer", func() bool {
		return p1.up(time.Now())
	})

	// The probe verdicts are exported for rxltop and Prometheus.
	resp, err := http.Get(tf.frontTS.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	samples, err := obs.ParsePrometheus(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if got := obs.SumSamples(samples, "rxlfront_peer_up", "peer", tf.urls[0]); got != 0 {
		t.Errorf("rxlfront_peer_up for dead peer = %g, want 0", got)
	}
	if got := obs.SumSamples(samples, "rxlfront_peer_up", "peer", tf.urls[1]); got != 1 {
		t.Errorf("rxlfront_peer_up for live peer = %g, want 1", got)
	}
	if obs.SumSamples(samples, "rxlfront_peer_probe_failures_total", "peer", tf.urls[0]) == 0 {
		t.Error("probe failures not exported")
	}

	// Front healthz reports the probe verdicts too.
	hresp, err := http.Get(tf.frontTS.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Peers []FrontPeerHealth `json:"peers"`
	}
	if err := json.NewDecoder(hresp.Body).Decode(&health); err != nil {
		hresp.Body.Close()
		t.Fatal(err)
	}
	hresp.Body.Close()
	for _, p := range health.Peers {
		if !p.Probed {
			t.Errorf("peer %s reported unprobed with probing active", p.URL)
		}
		if p.URL == tf.urls[0] && (p.Up || p.ProbeOK) {
			t.Errorf("dead peer %s reported up in healthz", p.URL)
		}
	}
}

// TestFrontStaleProbeKeepsNewerMark: a probe answer that was in flight
// when a forward failed cannot revive the peer that failure marked down —
// it was sent before the mark, so it says nothing about the peer since.
// The member's /v1/healthz blocks until released, which puts the mark
// inside the probe's flight deterministically.
func TestFrontStaleProbeKeepsNewerMark(t *testing.T) {
	inFlight, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	member := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/healthz" {
			once.Do(func() { close(inFlight) })
			<-release
		}
	}))
	defer member.Close()
	front, err := NewFront(FrontConfig{
		Peers:         []string{member.URL},
		ProbeInterval: time.Hour, // only the immediate first round runs
	})
	if err != nil {
		t.Fatal(err)
	}
	defer front.Close()
	releaseOnce := sync.OnceFunc(func() { close(release) })
	defer releaseOnce()

	<-inFlight
	p := front.peers[0]
	p.markDown(time.Now().Add(time.Hour))
	releaseOnce()

	deadline := time.Now().Add(5 * time.Second)
	for {
		p.mu.Lock()
		probed := p.probeChecked
		p.mu.Unlock()
		if probed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("timeout waiting for the probe answer")
		}
		time.Sleep(time.Millisecond)
	}
	if p.up(time.Now()) {
		t.Fatal("a probe sent before the down-mark revived the peer")
	}
}

// TestFrontMetricsFamilies pins the front's documented /metrics surface
// after real traffic: forwarding counters, the submit-latency histogram
// split by outcome, and a per-peer series for every ring member.
func TestFrontMetricsFamilies(t *testing.T) {
	tf := startFleet(t, 3, FrontConfig{})
	ctx := context.Background()
	fc := service.NewClient(tf.frontTS.URL)
	spec := gridSpec(61)
	if _, err := fc.Run(ctx, spec); err != nil {
		t.Fatal(err)
	}
	if v, err := fc.Submit(ctx, spec); err != nil || !v.Cached {
		t.Fatalf("repeat: cached=%v err=%v", v.Cached, err)
	}

	resp, err := http.Get(tf.frontTS.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	samples, err := obs.ParsePrometheus(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if got := obs.SumSamples(samples, "rxlfront_forwards_total"); got < 2 {
		t.Errorf("rxlfront_forwards_total = %g, want >= 2", got)
	}
	if got := obs.SumSamples(samples, "rxlfront_submit_seconds_count", "outcome", "hit"); got != 1 {
		t.Errorf("front hit-submit histogram count = %g, want 1", got)
	}
	if got := obs.SumSamples(samples, "rxlfront_submit_seconds_count"); got < 2 {
		t.Errorf("front submit histogram total = %g, want >= 2", got)
	}
	for _, u := range tf.urls {
		if got := obs.SumSamples(samples, "rxlfront_peer_routed_total", "peer", u); got < 0 {
			t.Errorf("missing per-peer series for %s", u)
		}
	}
}

// TestFrontProxyPropagatesRequestID: the front's job-handle proxy (GET
// and the SSE feed) goes through the same client request builder as every
// other hop, so the owner receives the request ID the front serves the
// request under — the client's if it sent one.
func TestFrontProxyPropagatesRequestID(t *testing.T) {
	srv, err := service.New(service.Config{ShardBudget: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var mu sync.Mutex
	seen := map[string]string{} // "METHOD path" → request ID the owner received
	owner := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		seen[r.Method+" "+r.URL.Path] = r.Header.Get(obs.HeaderRequestID)
		mu.Unlock()
		srv.ServeHTTP(w, r)
	}))
	defer owner.Close()
	front, err := NewFront(FrontConfig{Peers: []string{owner.URL}, ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer front.Close()
	frontTS := httptest.NewServer(front)
	defer frontTS.Close()

	ctx := context.Background()
	fc := service.NewClient(frontTS.URL)
	v, err := fc.Submit(ctx, gridSpec(59))
	if err != nil {
		t.Fatal(err)
	}
	if v, err = fc.Wait(ctx, v.ID); err != nil {
		t.Fatal(err)
	}
	_, localID, ok := front.resolveJobID(v.ID)
	if !ok {
		t.Fatalf("front issued an unroutable job id %q", v.ID)
	}

	for _, tc := range []struct{ rid, suffix string }{
		{"fwdget0000000001", ""},
		{"fwdsse0000000002", "/events"},
	} {
		req, err := http.NewRequest(http.MethodGet, frontTS.URL+"/v1/jobs/"+v.ID+tc.suffix, nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(obs.HeaderRequestID, tc.rid)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s through the front: status %d", tc.suffix, resp.StatusCode)
		}
		if got := resp.Header.Get(obs.HeaderRequestID); got != tc.rid {
			t.Errorf("front echoed request id %q, want %q", got, tc.rid)
		}
		mu.Lock()
		got := seen["GET /v1/jobs/"+localID+tc.suffix]
		mu.Unlock()
		if got != tc.rid {
			t.Errorf("owner saw request id %q on the forwarded GET %s, want the front's %q", got, tc.suffix, tc.rid)
		}
	}
}

// TestFrontRoutedCountsSubmitsOnly: peers[].routed and forwards count
// successful submit forwards. The ?wait= polls and the DELETE the front
// proxies for the same jobs update peer health, not those counters.
func TestFrontRoutedCountsSubmitsOnly(t *testing.T) {
	tf := startFleet(t, 3, FrontConfig{ProbeInterval: -1})
	ctx := context.Background()
	fc := service.NewClient(tf.frontTS.URL)
	var ids []string
	for seed := uint64(61); seed < 64; seed++ {
		v, err := fc.Submit(ctx, gridSpec(seed))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, v.ID)
	}
	for _, id := range ids[:2] {
		if _, err := fc.Wait(ctx, id); err != nil {
			t.Fatal(err)
		}
	}
	if err := fc.Cancel(ctx, ids[2]); err != nil {
		t.Fatal(err)
	}
	st := tf.front.Stats()
	var routed uint64
	for _, p := range st.Peers {
		routed += p.Routed
	}
	if routed != 3 || st.Forwards != 3 {
		t.Fatalf("Σ routed = %d, forwards = %d after 3 submits, 2 waits and 1 delete; want 3 and 3", routed, st.Forwards)
	}
}

// TestFrontReprobesFailedPeer: a ring owner whose first health probe
// fails is probed again long before ProbeInterval (an hour here), and
// its keys go back to it once it answers.
func TestFrontReprobesFailedPeer(t *testing.T) {
	var failedOnce atomic.Bool
	var urls []string
	for i := 0; i < 2; i++ {
		srv, err := service.New(service.Config{ShardBudget: 4})
		if err != nil {
			t.Fatal(err)
		}
		var h http.Handler = srv
		if i == 0 {
			h = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path == "/v1/healthz" && failedOnce.CompareAndSwap(false, true) {
					http.Error(w, "warming up", http.StatusServiceUnavailable)
					return
				}
				srv.ServeHTTP(w, r)
			})
		}
		ts := httptest.NewServer(h)
		t.Cleanup(func() { ts.Close(); srv.Close() })
		urls = append(urls, ts.URL)
	}
	front, err := NewFront(FrontConfig{Peers: urls, ProbeInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer front.Close()
	frontTS := httptest.NewServer(front)
	defer frontTS.Close()

	var spec service.JobSpec
	for seed := uint64(300); spec.Kind == ""; seed++ {
		norm, err := gridSpec(seed).Normalize()
		if err != nil {
			t.Fatal(err)
		}
		if front.Ring().Owner(norm.Key()) == urls[0] {
			spec = gridSpec(seed)
		}
	}
	owner := front.peerByURL(urls[0])
	want := string(owner.idHead[len(viewHead):])

	deadline := time.Now().Add(10 * time.Second)
	for owner.probeFails.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("timeout waiting for the owner's first probe to fail")
		}
		time.Sleep(time.Millisecond)
	}
	fc := service.NewClient(frontTS.URL)
	for {
		v, err := fc.Submit(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		if strings.HasPrefix(v.ID, want) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("owner still skipped after its failed probe: submit went to %q, want %s", v.ID, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestFrontServedAnswerClearsFailedProbe: a peer whose last probe failed
// is routable again the moment it serves a request through the front. An
// answer that serves nothing (a 404) clears only a passive mark.
func TestFrontServedAnswerClearsFailedProbe(t *testing.T) {
	tf := startFleet(t, 2, FrontConfig{ProbeInterval: -1})
	ctx := context.Background()
	fc := service.NewClient(tf.frontTS.URL)
	v, err := fc.Submit(ctx, gridSpec(71))
	if err != nil {
		t.Fatal(err)
	}
	p, localID, ok := tf.front.resolveJobID(v.ID)
	if !ok {
		t.Fatalf("unroutable handle %q", v.ID)
	}
	handle := strings.TrimSuffix(v.ID, localID) // "p<index>~"
	p.mu.Lock()
	p.probeChecked, p.probeOK = true, false
	p.mu.Unlock()
	if _, err := fc.Get(ctx, handle+"j999999-00000000"); err == nil {
		t.Fatal("GET of an unknown job succeeded")
	}
	if p.up(time.Now()) {
		t.Fatal("a 404 answer cleared a failed probe verdict")
	}
	if _, err := fc.Get(ctx, v.ID); err != nil {
		t.Fatal(err)
	}
	if !p.up(time.Now()) {
		t.Fatal("a proxied 2xx left the failed probe verdict standing")
	}

	// With every probe failed, the submit dials the owner as a last
	// resort, and its answer revives it.
	for _, q := range tf.front.peers {
		q.mu.Lock()
		q.probeChecked, q.probeOK = true, false
		q.mu.Unlock()
	}
	if w, err := fc.Submit(ctx, gridSpec(71)); err != nil || !strings.HasPrefix(w.ID, handle) {
		t.Fatalf("last-resort submit: %q, %v; want the owner's handle", w.ID, err)
	}
	if !p.up(time.Now()) {
		t.Fatal("a forwarded submit left the failed probe verdict standing")
	}
}
