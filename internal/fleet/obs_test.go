package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/service"
)

// TestFleetTraceAssembly is the tracing acceptance pin: a traced hot-key
// miss that lands on a replica shows the whole fleet path — the front's
// forwarding span, the replica's lifecycle and peer-probe spans, and the
// owner's cache-serve span — merged under the one request ID the client
// sent.
func TestFleetTraceAssembly(t *testing.T) {
	tf := startFleet(t, 3, FrontConfig{HotThreshold: 2, HotReplicas: 2})
	ctx := context.Background()
	spec := gridSpec(53)
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	fc := service.NewClient(tf.frontTS.URL)

	// Warm the owner so later replica-routed repeats peer-fetch.
	if _, err := fc.Run(ctx, spec); err != nil {
		t.Fatal(err)
	}

	var traced service.JobView
	var rid string
	for i := 0; i < 20 && !traced.PeerFetched; i++ {
		rid = fmt.Sprintf("trace%011d", i)
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
		var v service.JobView
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			resp.Body.Close()
			t.Fatal(err)
		}
		resp.Body.Close()
		if !v.Status.Terminal() {
			if v, err = fc.Wait(ctx, v.ID); err != nil {
				t.Fatal(err)
			}
		}
		traced = v
	}
	if !traced.PeerFetched {
		t.Fatal("no request was ever replica-routed into a peer fetch")
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
// revived by its next successful probe instead of waiting out RetryDead.
func TestFrontActiveProbing(t *testing.T) {
	tf := startFleet(t, 2, FrontConfig{
		ProbeInterval: 20 * time.Millisecond,
		ProbeTimeout:  300 * time.Millisecond,
		RetryDead:     time.Hour, // passive marks alone would never recover in-test
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
