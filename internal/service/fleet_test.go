package service

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestPeerFetchServesMiss pins the daemon side of the fleet protocol: a
// miss whose PeerFetch hook returns bytes is finished with those exact
// bytes, marked peer_fetched, cached locally (the repeat is a plain
// cache hit with no second fetch), and counted in the fleet stats.
func TestPeerFetchServesMiss(t *testing.T) {
	spec := smallGridSpec(77)
	norm, err := spec.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	want := []byte(`{"from":"peer"}`)
	var calls atomic.Int64
	srv := newTestServer(t, Config{
		PeerFetch: func(ctx context.Context, key string) ([]byte, bool) {
			calls.Add(1)
			if key != norm.Key() {
				t.Errorf("fetch asked for key %q, want %q", key, norm.Key())
			}
			return want, true
		},
		FleetInfo: &FleetInfo{Self: "http://self:1", Peers: 3},
	})
	c := NewInProcessClient(srv)
	ctx := context.Background()

	v, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Status.Terminal() {
		if v, err = c.Wait(ctx, v.ID); err != nil {
			t.Fatal(err)
		}
	}
	if v.Status != StatusDone || !v.PeerFetched || string(v.Result) != string(want) {
		t.Fatalf("peer-fetched job: status=%s peer_fetched=%v result=%s", v.Status, v.PeerFetched, v.Result)
	}

	// Repeat: local cache hit, no second fetch.
	v2, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !v2.Cached || v2.PeerFetched || string(v2.Result) != string(want) {
		t.Fatalf("repeat: cached=%v peer_fetched=%v", v2.Cached, v2.PeerFetched)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("PeerFetch called %d times, want 1", n)
	}
	st := srv.Stats()
	if st.Fleet == nil || st.Fleet.PeerHits != 1 || st.Fleet.Self != "http://self:1" {
		t.Fatalf("fleet stats: %+v", st.Fleet)
	}
}

// TestPeerFetchMissFallsThrough pins the fallback: a fetch that finds
// nothing falls through to a local engine run whose bytes match the
// non-fleet daemon's, and is counted as a peer miss.
func TestPeerFetchMissFallsThrough(t *testing.T) {
	spec := smallGridSpec(78)
	srv := newTestServer(t, Config{
		PeerFetch: func(ctx context.Context, key string) ([]byte, bool) { return nil, false },
		FleetInfo: &FleetInfo{},
	})
	plain := newTestServer(t, Config{})
	ctx := context.Background()

	got, err := NewInProcessClient(srv).Run(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	want, err := NewInProcessClient(plain).Run(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatal("fleet-member compute bytes differ from plain daemon bytes")
	}
	if st := srv.Stats(); st.Fleet.PeerMisses != 1 || st.Fleet.PeerHits != 0 {
		t.Fatalf("fleet stats after fallback: %+v", st.Fleet)
	}
}

// TestPeerFetchRejectsNonJSON: bytes a peer returns that are not a JSON
// document in encoder form — a proxy's error page — are a peer miss. The
// job computes its own result, and the key is not poisoned: the repeat
// is a hit with the computed bytes.
func TestPeerFetchRejectsNonJSON(t *testing.T) {
	spec := smallGridSpec(79)
	srv := newTestServer(t, Config{
		PeerFetch: func(ctx context.Context, key string) ([]byte, bool) { return []byte("<html>502</html>"), true },
		FleetInfo: &FleetInfo{},
	})
	ctx := context.Background()
	c := NewInProcessClient(srv)

	first, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if first, err = c.Wait(ctx, first.ID); err != nil {
		t.Fatal(err)
	}
	want, err := NewInProcessClient(newTestServer(t, Config{})).Run(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if first.Status != StatusDone || first.PeerFetched || string(first.Result) != string(want) {
		t.Fatalf("served %s peer_fetched=%v %q; the plain daemon computes %q",
			first.Status, first.PeerFetched, first.Result, want)
	}
	v, err := c.Submit(ctx, spec)
	if err != nil || !v.Cached || string(v.Result) != string(want) {
		t.Fatalf("repeat: cached=%v result=%q err=%v", v.Cached, v.Result, err)
	}
	if st := srv.Stats(); st.Fleet.PeerMisses != 1 || st.Fleet.PeerHits != 0 {
		t.Fatalf("fleet stats after a refused fetch: %+v", st.Fleet)
	}
	tv, err := c.JobTrace(ctx, first.ID)
	if err != nil {
		t.Fatal(err)
	}
	fetches := 0
	for _, sp := range tv.Spans {
		if sp.Name == "peer_fetch" {
			fetches++
			if sp.Attrs["hit"] != "false" {
				t.Fatalf("refused fetch recorded hit=%q", sp.Attrs["hit"])
			}
		}
	}
	if fetches != 1 {
		t.Fatalf("%d peer_fetch spans, want 1", fetches)
	}
}

// TestPeerFetchSingleFlight pins single-flight across the fetch window:
// identical submissions racing a slow peer fetch coalesce onto the one
// fetching job — the fetcher runs once, every caller gets its bytes.
func TestPeerFetchSingleFlight(t *testing.T) {
	spec := smallGridSpec(79)
	release := make(chan struct{})
	var calls atomic.Int64
	srv := newTestServer(t, Config{
		PeerFetch: func(ctx context.Context, key string) ([]byte, bool) {
			calls.Add(1)
			<-release
			return []byte(`{"slow":"peer"}`), true
		},
		FleetInfo: &FleetInfo{},
	})
	c := NewInProcessClient(srv)
	ctx := context.Background()

	first, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the fetch is actually in progress, then race twins in.
	for calls.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	const twins = 8
	var wg sync.WaitGroup
	results := make([]JobView, twins)
	for i := 0; i < twins; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := c.Submit(ctx, spec)
			if err != nil {
				t.Errorf("twin %d: %v", i, err)
				return
			}
			if !v.Status.Terminal() {
				if v, err = c.Wait(ctx, v.ID); err != nil {
					t.Errorf("twin %d wait: %v", i, err)
					return
				}
			}
			results[i] = v
		}(i)
	}
	time.Sleep(10 * time.Millisecond)
	close(release)
	wg.Wait()

	for i, v := range results {
		if v.Status != StatusDone || string(v.Result) != `{"slow":"peer"}` {
			t.Fatalf("twin %d: status=%s result=%s", i, v.Status, v.Result)
		}
		if v.ID != first.ID && !v.Cached {
			t.Fatalf("twin %d ran as its own uncached job %s (first %s) — single-flight broken", i, v.ID, first.ID)
		}
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("PeerFetch ran %d times for one key, want 1", n)
	}
}

// TestCacheEndpoint pins GET /v1/cache/{key}: raw byte serving with an
// ETag, 404 for unknown keys, 400 for malformed ones — and that probes
// never trigger computation or skew the client hit/miss counters.
func TestCacheEndpoint(t *testing.T) {
	srv := newTestServer(t, Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	ctx := context.Background()
	c := NewClient(ts.URL)

	spec := smallGridSpec(80)
	norm, err := spec.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	key := norm.Key()

	// Unknown key: clean 404 via the typed client.
	if _, ok, err := c.FetchCached(ctx, key, 0); ok || err != nil {
		t.Fatalf("fetch of uncomputed key: ok=%v err=%v", ok, err)
	}

	want, err := c.Run(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/v1/cache/" + key)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || string(body) != string(want) {
		t.Fatalf("cache GET: status=%d bytes-match=%v", resp.StatusCode, string(body) == string(want))
	}
	if et := resp.Header.Get("ETag"); et != `"`+key+`"` {
		t.Fatalf("cache GET ETag %q, want the content address", et)
	}

	resp, err = http.Get(ts.URL + "/v1/cache/not-a-key")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed key: status %d, want 400", resp.StatusCode)
	}

	// Probes must be counted on their own and never charged to the
	// client miss counter (the misses on record all came from Submit).
	before := srv.Stats().Cache
	if _, ok, err := c.FetchCached(ctx, norm.Key(), 0); !ok || err != nil {
		t.Fatalf("repeat probe: ok=%v err=%v", ok, err)
	}
	unknown := "00000000000000000000000000000000000000000000000000000000deadbeef"
	if _, ok, _ := c.FetchCached(ctx, unknown, 0); ok {
		t.Fatal("unknown key probe returned bytes")
	}
	after := srv.Stats().Cache
	if after.Probes != before.Probes+2 {
		t.Fatalf("probe counter went %d -> %d, want +2", before.Probes, after.Probes)
	}
	if after.Misses != before.Misses || after.Hits != before.Hits {
		t.Fatalf("probes moved client counters: misses %d->%d hits %d->%d",
			before.Misses, after.Misses, before.Hits, after.Hits)
	}
}

// TestCacheEndpointJoinsInFlight pins the fleet single-flight join: a
// probe with ?wait= for a key that is mid-computation blocks until the
// job finishes and returns its bytes, rather than 404ing and pushing
// the peer into a redundant compute.
func TestCacheEndpointJoinsInFlight(t *testing.T) {
	srv := newTestServer(t, Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	ctx := context.Background()
	c := NewClient(ts.URL)

	spec := smallGridSpec(81)
	norm, err := spec.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	v, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}

	// Join immediately — the job may be queued, running, or already done;
	// in every case the waiting probe must come back with the bytes.
	b, ok, err := c.FetchCached(ctx, norm.Key(), 30*time.Second)
	if err != nil || !ok {
		t.Fatalf("in-flight join: ok=%v err=%v", ok, err)
	}
	done, err := c.Wait(ctx, v.ID)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != string(done.Result) {
		t.Fatal("joined probe bytes differ from the job's result")
	}
	var decoded any
	if err := json.Unmarshal(b, &decoded); err != nil {
		t.Fatalf("joined probe returned non-JSON: %v", err)
	}
}
