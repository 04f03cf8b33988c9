package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/link"
	"repro/internal/runner"
	"repro/internal/service"
)

// gridSpec is the standard small job used across the fleet tests: a
// one-cell RXL grid that computes in tens of milliseconds.
func gridSpec(seed uint64) service.JobSpec {
	return service.JobSpec{
		Kind: service.KindGrid,
		Seed: seed,
		Grid: &core.Grid{
			Base: core.Config{Protocol: link.ProtocolRXL, Levels: 1, BER: 1e-5, BurstProb: 0.4, Seed: 7},
			N:    500,
		},
	}
}

// testFleet is N daemons with peer fetch wired among them plus a front.
type testFleet struct {
	servers []*service.Server
	urls    []string
	daemons []*httptest.Server
	front   *Front
	frontTS *httptest.Server
	// fetchGate, when set, holds every daemon's PeerFetch at its start
	// until the group's count has arrived — a test's way to make "these
	// jobs were all in flight before any probed" certain, not likely.
	fetchGate atomic.Pointer[sync.WaitGroup]
}

// startFleet boots n daemons and a front. Peer URLs are only known
// after the httptest listeners start, so each daemon's PeerFetch is a
// late-bound closure over a fetcher slot filled once all URLs exist —
// exactly the ordering cmd/rxld avoids by taking URLs from flags.
func startFleet(t *testing.T, n int, frontCfg FrontConfig) *testFleet {
	t.Helper()
	tf := &testFleet{}
	fetchers := make([]*Fetcher, n)
	infos := make([]*service.FleetInfo, n)
	for i := 0; i < n; i++ {
		i := i
		infos[i] = &service.FleetInfo{}
		srv, err := service.New(service.Config{
			ShardBudget: 4,
			PeerFetch: func(ctx context.Context, key string) ([]byte, bool) {
				if fetchers[i] == nil {
					return nil, false
				}
				if g := tf.fetchGate.Load(); g != nil {
					g.Done()
					g.Wait()
				}
				return fetchers[i].Fetch(ctx, key)
			},
			FleetInfo: infos[i],
		})
		if err != nil {
			t.Fatal(err)
		}
		tf.servers = append(tf.servers, srv)
		ts := httptest.NewServer(srv)
		tf.daemons = append(tf.daemons, ts)
		tf.urls = append(tf.urls, ts.URL)
	}
	for i := 0; i < n; i++ {
		f, err := NewFetcher(FetchConfig{Self: tf.urls[i], Peers: tf.urls, Wait: 30 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		fetchers[i] = f
		*infos[i] = service.FleetInfo{
			Self:     tf.urls[i],
			Peers:    n,
			RingSize: f.Ring().Size(),
			Replicas: f.Candidates(),
		}
	}
	frontCfg.Peers = tf.urls
	front, err := NewFront(frontCfg)
	if err != nil {
		t.Fatal(err)
	}
	tf.front = front
	tf.frontTS = httptest.NewServer(front)
	t.Cleanup(func() {
		tf.front.Close()
		tf.frontTS.Close()
		for i, ts := range tf.daemons {
			ts.Close()
			tf.servers[i].Close()
		}
	})
	return tf
}

// directBytes computes the spec's result document the way a daemon
// would, straight on the library — the reference the fleet must match
// byte for byte.
func directBytes(t *testing.T, spec service.JobSpec) []byte {
	t.Helper()
	norm, err := spec.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.RunGrid(context.Background(), runner.Pool{Workers: 4, BaseSeed: norm.Seed}, *norm.Grid)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestFleetByteIdentity is the acceptance pin: a job submitted through
// the front returns bytes identical to the same spec on a standalone
// single daemon and to the direct library run.
func TestFleetByteIdentity(t *testing.T) {
	tf := startFleet(t, 3, FrontConfig{})
	ctx := context.Background()
	spec := gridSpec(11)

	fc := service.NewClient(tf.frontTS.URL)
	viaFront, err := fc.Run(ctx, spec)
	if err != nil {
		t.Fatalf("front run: %v", err)
	}

	standalone, err := service.New(service.Config{ShardBudget: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer standalone.Close()
	sts := httptest.NewServer(standalone)
	defer sts.Close()
	viaSingle, err := service.NewClient(sts.URL).Run(ctx, spec)
	if err != nil {
		t.Fatalf("single-daemon run: %v", err)
	}

	direct := directBytes(t, spec)
	if string(viaFront) != string(viaSingle) {
		t.Fatalf("front bytes != single-daemon bytes\nfront:  %.120s\nsingle: %.120s", viaFront, viaSingle)
	}
	if string(viaFront) != string(direct) {
		t.Fatalf("front bytes != direct library bytes\nfront:  %.120s\ndirect: %.120s", viaFront, direct)
	}

	// The repeat must be a cache hit at the same owner.
	v, err := fc.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Cached || v.Status != service.StatusDone {
		t.Fatalf("repeat through front: cached=%v status=%s, want cached hit", v.Cached, v.Status)
	}
	if string(v.Result) != string(direct) {
		t.Fatalf("cached repeat bytes differ from direct bytes")
	}
}

// TestFleetPeerFetch pins the peer-fetch protocol: after the owner has
// computed a key, submitting the same spec directly to every daemon
// serves identical bytes, with the non-owners marked peer_fetched — and
// the fleet computed the document exactly once.
func TestFleetPeerFetch(t *testing.T) {
	tf := startFleet(t, 3, FrontConfig{})
	ctx := context.Background()
	spec := gridSpec(23)
	norm, err := spec.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	key := norm.Key()
	owner := tf.front.Ring().Owner(key)

	// Compute once at the owner, via the front.
	ref, err := service.NewClient(tf.frontTS.URL).Run(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}

	computes, peerFetched := 0, 0
	for i, url := range tf.urls {
		v, err := service.NewClient(url).Submit(ctx, spec)
		if err != nil {
			t.Fatalf("daemon %d: %v", i, err)
		}
		if !v.Status.Terminal() {
			if v, err = service.NewClient(url).Wait(ctx, v.ID); err != nil {
				t.Fatalf("daemon %d wait: %v", i, err)
			}
		}
		if v.Status != service.StatusDone {
			t.Fatalf("daemon %d: status %s (%s)", i, v.Status, v.Error)
		}
		if string(v.Result) != string(ref) {
			t.Fatalf("daemon %d bytes differ from reference", i)
		}
		switch {
		case v.PeerFetched:
			peerFetched++
			if url == owner {
				t.Fatalf("owner %s peer-fetched its own key", url)
			}
		case v.Cached:
			if url != owner {
				t.Fatalf("non-owner %s had a local cache hit before ever seeing the key", url)
			}
		default:
			computes++
		}
	}
	if computes != 0 {
		t.Fatalf("%d daemons recomputed a key the owner already held", computes)
	}
	if peerFetched != 2 {
		t.Fatalf("peer-fetched count %d, want 2 (both non-owners)", peerFetched)
	}

	// statsz accounting: the two non-owners report peer hits; someone
	// served the probes.
	var hits, served uint64
	for _, srv := range tf.servers {
		st := srv.Stats()
		if st.Fleet == nil {
			t.Fatal("fleet member missing fleet stats")
		}
		hits += st.Fleet.PeerHits
		served += st.Fleet.PeerServed
	}
	if hits != 2 || served < 2 {
		t.Fatalf("fleet stats: peer_hits=%d (want 2), peer_served=%d (want >= 2)", hits, served)
	}
}

// TestColdKeyAtBothNonOwners pins the mutual-join fix: one cold key
// handed directly to both non-owners at once. Each probes the owner
// (404 at once — it has never seen the key) and then the other as its
// fallback owner, where the key is in flight; if fallback probes joined
// in-flight jobs the two would wait on each other for the whole fetch
// budget (30 s here) before either computed. Both must instead compute
// and answer identical bytes in compute time — tens of milliseconds.
func TestColdKeyAtBothNonOwners(t *testing.T) {
	tf := startFleet(t, 3, FrontConfig{})
	spec := gridSpec(29)
	norm, err := spec.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	owner := tf.front.Ring().Owner(norm.Key())

	// Both jobs are registered in flight before either starts probing.
	var gate sync.WaitGroup
	gate.Add(2)
	tf.fetchGate.Store(&gate)

	want := directBytes(t, spec)
	start := time.Now()
	var wg sync.WaitGroup
	for _, url := range tf.urls {
		if url == owner {
			continue
		}
		wg.Add(1)
		go func(url string) {
			defer wg.Done()
			res, err := service.NewClient(url).Run(context.Background(), spec)
			if err != nil || string(res) != string(want) {
				t.Errorf("non-owner %s: error %v, bytes\n%s\nwant\n%s", url, err, res, want)
			}
		}(url)
	}
	wg.Wait()
	elapsed := time.Since(start)
	// A sixth of the join budget: far above any loaded-host compute
	// time, far below what a mutual join costs.
	if elapsed > 5*time.Second {
		t.Fatalf("cold key at both non-owners took %v: they waited on each other", elapsed)
	}
	t.Logf("both non-owners answered in %v", elapsed)
}

// TestFrontHotPromotion drives one key past the promotion threshold and
// asserts its bytes end up replicated: at least HotReplicas daemons
// hold the key locally, and every response stayed byte-identical.
func TestFrontHotPromotion(t *testing.T) {
	tf := startFleet(t, 3, FrontConfig{HotThreshold: 3, HotReplicas: 2})
	ctx := context.Background()
	spec := gridSpec(31)
	norm, err := spec.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	key := norm.Key()

	fc := service.NewClient(tf.frontTS.URL)
	var ref []byte
	for i := 0; i < 12; i++ {
		res, err := fc.Run(ctx, spec)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if ref == nil {
			ref = res
		} else if string(res) != string(ref) {
			t.Fatalf("request %d bytes diverged under replication", i)
		}
	}

	holders := 0
	for _, url := range tf.urls {
		if _, ok, err := service.NewClient(url).FetchCached(ctx, key, 0); err == nil && ok {
			holders++
		}
	}
	if holders < 2 {
		t.Fatalf("hot key held by %d daemons, want >= 2 after promotion", holders)
	}
	st := tf.front.Stats()
	if st.HotPromotions == 0 {
		t.Fatal("front recorded no hot promotions")
	}
}

// TestFrontFailover kills a key's owner and asserts the front still
// serves the job — computed by the next owner on the ring, with
// identical bytes — and reports the dead peer.
func TestFrontFailover(t *testing.T) {
	tf := startFleet(t, 3, FrontConfig{})
	ctx := context.Background()

	// Find a spec owned by daemon 0 (vary the seed until placement
	// lands there), then kill daemon 0.
	var spec service.JobSpec
	found := false
	for seed := uint64(100); seed < 200; seed++ {
		s := gridSpec(seed)
		n, err := s.Normalize()
		if err != nil {
			t.Fatal(err)
		}
		if tf.front.Ring().Owner(n.Key()) == tf.urls[0] {
			spec, found = s, true
			break
		}
	}
	if !found {
		t.Fatal("no test seed owned by daemon 0")
	}
	direct := directBytes(t, spec)
	tf.daemons[0].Close()

	res, err := service.NewClient(tf.frontTS.URL).Run(ctx, spec)
	if err != nil {
		t.Fatalf("run with dead owner: %v", err)
	}
	if string(res) != string(direct) {
		t.Fatal("failover changed result bytes")
	}
	st := tf.front.Stats()
	if st.Failovers == 0 {
		t.Fatal("front recorded no failover")
	}
	downSeen := false
	for _, p := range st.Peers {
		if p.URL == tf.urls[0] && !p.Up {
			downSeen = true
		}
	}
	if !downSeen {
		t.Fatal("dead peer not marked down in front stats")
	}
}

// TestFrontJobHandles pins the prefixed-ID protocol: GET/wait, events
// streaming, conditional GET, and the 404s for malformed handles.
func TestFrontJobHandles(t *testing.T) {
	tf := startFleet(t, 3, FrontConfig{})
	ctx := context.Background()
	fc := service.NewClient(tf.frontTS.URL)

	v, err := fc.Submit(ctx, gridSpec(41))
	if err != nil {
		t.Fatal(err)
	}
	if v.ID == "" || v.ID[0] != 'p' {
		t.Fatalf("front job ID %q lacks a peer prefix", v.ID)
	}
	done, err := fc.Wait(ctx, v.ID)
	if err != nil {
		t.Fatal(err)
	}
	if done.Status != service.StatusDone || done.ID != v.ID {
		t.Fatalf("wait through front: status=%s id=%q (submitted %q)", done.Status, done.ID, v.ID)
	}

	// SSE stream proxies through, replay included, ending in the result.
	var last service.Event
	if err := fc.Stream(ctx, v.ID, func(e service.Event) error { last = e; return nil }); err != nil {
		t.Fatalf("stream through front: %v", err)
	}
	if last.Type != "result" {
		t.Fatalf("stream ended on %q, want result", last.Type)
	}

	// Conditional GET: the front relays ETag/304 from the daemon.
	_, etag, notMod, err := fc.GetConditional(ctx, v.ID, "")
	if err != nil || notMod || etag == "" {
		t.Fatalf("first conditional get: etag=%q notMod=%v err=%v", etag, notMod, err)
	}
	_, _, notMod, err = fc.GetConditional(ctx, v.ID, etag)
	if err != nil || !notMod {
		t.Fatalf("revalidation: notMod=%v err=%v, want 304", notMod, err)
	}

	for _, bad := range []string{"nope", "p9~j000001-deadbeef", "px~j1", v.ID[1:]} {
		if _, err := fc.Get(ctx, bad); err == nil {
			t.Errorf("GET %q through front succeeded, want 404", bad)
		}
	}
}

// TestFetcherSkipsSelfOwnedKeys pins the fetcher decision table: when
// this daemon is the ring owner, Fetch returns immediately without any
// network traffic (the owner computes; peers fill from it).
func TestFetcherSkipsSelfOwnedKeys(t *testing.T) {
	peers := []string{"http://a:1", "http://b:1", "http://c:1"}
	f, err := NewFetcher(FetchConfig{Self: "http://a:1", Peers: peers})
	if err != nil {
		t.Fatal(err)
	}
	// Clients point at unroutable names, so any network attempt would
	// error slowly; self-owned keys must return instantly false.
	for i := 0; i < 2000; i++ {
		key := fmt.Sprintf("%064d", i)
		if f.Ring().Owner(key) != "http://a:1" {
			continue
		}
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		if b, ok := f.Fetch(ctx, key); ok || b != nil {
			cancel()
			t.Fatalf("self-owned key %q fetched from a peer", key)
		}
		cancel()
		return
	}
	t.Fatal("no self-owned key found")
}
