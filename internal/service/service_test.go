package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/link"
	"repro/internal/runner"
)

// smallGridSpec is the canonical tiny grid job the end-to-end tests use:
// one RXL cell at an accelerated BER, small enough to run in tens of
// milliseconds.
func smallGridSpec(seed uint64) JobSpec {
	return JobSpec{
		Kind: KindGrid,
		Seed: seed,
		Grid: &core.Grid{
			Base: core.Config{Protocol: link.ProtocolRXL, Levels: 1, BER: 1e-5, BurstProb: 0.4, Seed: 7},
			N:    500,
		},
	}
}

// sweepSpec is a small Monte-Carlo sweep job.
func sweepSpec(seed uint64) JobSpec {
	return JobSpec{
		Kind:  KindSweep,
		Seed:  seed,
		Sweep: &SweepSpec{BERs: []float64{1e-5}, FlitsPerPoint: 200000, Shards: 8},
	}
}

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// TestEndToEndHTTP drives the full path over a real TCP socket: submit a
// grid job, follow its SSE stream to completion, fetch the result, and
// require it byte-identical to a direct library run of the same config —
// then resubmit and require a cache hit with the same bytes.
func TestEndToEndHTTP(t *testing.T) {
	srv := newTestServer(t, Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := NewClient(ts.URL)
	ctx := context.Background()

	if err := c.Health(ctx); err != nil {
		t.Fatal(err)
	}

	spec := smallGridSpec(42)
	v, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if v.Cached {
		t.Fatal("first submission reported cached")
	}

	// Follow the SSE stream: it must replay from "queued" and end with
	// the result event.
	var types []string
	var streamed json.RawMessage
	err = c.Stream(ctx, v.ID, func(e Event) error {
		types = append(types, e.Type)
		if e.Type == "result" {
			streamed = e.Result
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(types) == 0 || types[0] != "status" {
		t.Fatalf("stream did not replay from the queued status: %v", types)
	}
	if streamed == nil {
		t.Fatalf("stream ended without a result event: %v", types)
	}
	hasProgress := false
	for _, ty := range types {
		if ty == "progress" {
			hasProgress = true
		}
	}
	if !hasProgress {
		t.Errorf("no progress events bridged from the runner: %v", types)
	}

	got, err := c.Wait(ctx, v.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Status != StatusDone {
		t.Fatalf("job ended %s: %s", got.Status, got.Error)
	}

	// Direct library run of the same spec — different worker count on
	// purpose; results must be byte-identical anyway.
	norm, err := spec.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	direct, err := core.RunGrid(ctx, runner.Pool{Workers: 1, BaseSeed: spec.Seed}, *norm.Grid)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(direct)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Result, want) {
		t.Fatalf("daemon result differs from direct rxl.Sweep run:\n got %s\nwant %s", got.Result, want)
	}
	if !bytes.Equal(streamed, want) {
		t.Fatal("SSE result event differs from GET result")
	}

	// Repeat submission: a cache hit, answered terminally at submit time
	// with the same bytes.
	v2, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !v2.Cached || v2.Status != StatusDone {
		t.Fatalf("repeat submission not served from cache: cached=%v status=%s", v2.Cached, v2.Status)
	}
	if !bytes.Equal(v2.Result, want) {
		t.Fatal("cached result differs from uncached result")
	}

	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Cache.Hits == 0 {
		t.Error("statsz reports zero cache hits after a hit")
	}
	if st.PeakShardsInUse > st.ShardBudget {
		t.Errorf("peak shard use %d exceeded budget %d", st.PeakShardsInUse, st.ShardBudget)
	}
}

// TestCacheKeyCanonicalization: the key must be invariant under JSON
// field order, default-valued fields left out, axes left to default
// expansion, and scheduling-only fields — and must differ when any
// result-determining field differs.
func TestCacheKeyCanonicalization(t *testing.T) {
	key := func(t *testing.T, raw string) string {
		t.Helper()
		var spec JobSpec
		if err := json.Unmarshal([]byte(raw), &spec); err != nil {
			t.Fatal(err)
		}
		norm, err := spec.Normalize()
		if err != nil {
			t.Fatal(err)
		}
		return norm.Key()
	}

	base := key(t, `{"kind":"grid","seed":1,"grid":{"Base":{"Protocol":2,"Levels":1,"BER":1e-6},"N":100}}`)

	for name, raw := range map[string]string{
		"field order":       `{"grid":{"N":100,"Base":{"BER":1e-6,"Levels":1,"Protocol":2}},"seed":1,"kind":"grid"}`,
		"explicit defaults": `{"kind":"grid","seed":1,"priority":0,"grid":{"Base":{"Protocol":2,"Levels":1,"BER":1e-6,"BurstProb":0,"Seed":0},"N":100}}`,
		"axes spelled out":  `{"kind":"grid","seed":1,"grid":{"Base":{"Protocol":2,"Levels":1,"BER":1e-6},"Protocols":[2],"Levels":[1],"BERs":[1e-6],"Seeds":[0],"N":100}}`,
		"scheduling fields": `{"kind":"grid","seed":1,"priority":9,"timeout_ms":5000,"workers":3,"grid":{"Base":{"Protocol":2,"Levels":1,"BER":1e-6},"N":100}}`,
	} {
		if got := key(t, raw); got != base {
			t.Errorf("%s: key %s != base %s", name, got, base)
		}
	}

	for name, raw := range map[string]string{
		"different seed":  `{"kind":"grid","seed":2,"grid":{"Base":{"Protocol":2,"Levels":1,"BER":1e-6},"N":100}}`,
		"different BER":   `{"kind":"grid","seed":1,"grid":{"Base":{"Protocol":2,"Levels":1,"BER":2e-6},"N":100}}`,
		"different N":     `{"kind":"grid","seed":1,"grid":{"Base":{"Protocol":2,"Levels":1,"BER":1e-6},"N":101}}`,
		"different proto": `{"kind":"grid","seed":1,"grid":{"Base":{"Protocol":0,"Levels":1,"BER":1e-6},"N":100}}`,
	} {
		if got := key(t, raw); got == base {
			t.Errorf("%s: key did not change", name)
		}
	}

	// Kinds never collide even over similar payload shapes.
	a := JobSpec{Kind: KindSweep, Sweep: &SweepSpec{BERs: []float64{1e-6}, FlitsPerPoint: 1000}}
	b := JobSpec{Kind: KindRare, Rare: &RareSpec{BERs: []float64{1e-6}}}
	na, err := a.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	nb, err := b.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if na.Key() == nb.Key() {
		t.Error("sweep and rare specs share a key")
	}
}

// TestAdmissionControlUnderConcurrentLoad: 100 goroutines submit unique
// jobs against a 4-worker budget; the scheduler's peak concurrent shard
// allocation must never exceed the budget, every admitted job must
// finish, and the queue bound must be respected (rejections are 429s the
// submitters retry).
func TestAdmissionControlUnderConcurrentLoad(t *testing.T) {
	const budget = 4
	srv := newTestServer(t, Config{ShardBudget: budget, QueueDepth: 128})
	c := NewInProcessClient(srv)
	ctx := context.Background()

	const n = 100
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Unique seeds make unique keys: no dedup, no cache hits.
			spec := sweepSpec(uint64(1000 + i))
			spec.Workers = 2
			for {
				v, err := c.Submit(ctx, spec)
				if IsQueueFull(err) {
					time.Sleep(5 * time.Millisecond)
					continue
				}
				if err != nil {
					errs <- err
					return
				}
				got, err := c.Wait(ctx, v.ID)
				if err != nil {
					errs <- err
					return
				}
				if got.Status != StatusDone {
					errs <- fmt.Errorf("job %s ended %s: %s", v.ID, got.Status, got.Error)
				}
				return
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	st := srv.Stats()
	if st.PeakShardsInUse > budget {
		t.Fatalf("peak shard allocation %d exceeded budget %d", st.PeakShardsInUse, budget)
	}
	if st.PeakShardsInUse == 0 {
		t.Fatal("scheduler never allocated a shard")
	}
	if st.JobsCompleted < n {
		t.Fatalf("completed %d of %d jobs", st.JobsCompleted, n)
	}
}

// TestIdleServerRunsNoGoroutine: dispatch is inline, so a Server with
// nothing to execute runs no goroutine of its own. The count is compared
// with ≤ and never retried: goroutines earlier tests left behind may exit
// in between, but none may start.
func TestIdleServerRunsNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	newTestServer(t, Config{})
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("%d goroutines after New, %d before", after, before)
	}
}

// TestQueueFullRejects: with a single-slot queue behind a busy budget,
// excess submissions are rejected with the queue-full admission error
// rather than absorbed.
func TestQueueFullRejects(t *testing.T) {
	srv := newTestServer(t, Config{ShardBudget: 1, QueueDepth: 1})
	c := NewInProcessClient(srv)
	ctx := context.Background()

	// A rare job with a large fixed budget occupies the only worker.
	slow := JobSpec{
		Kind: KindRare,
		Seed: 1,
		Rare: &RareSpec{BERs: []float64{1e-9}, MaxTrials: 1 << 26, RelErr: 0, Shards: 64},
	}
	v1, err := c.Submit(ctx, slow)
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, srv, v1.ID, StatusRunning)

	// Fill the queue slot.
	v2, err := c.Submit(ctx, sweepSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	// Overflow must be rejected.
	_, err = c.Submit(ctx, sweepSpec(3))
	if !IsQueueFull(err) {
		t.Fatalf("want queue-full rejection, got %v", err)
	}

	// Cancel the hog; the queued job must then run to completion.
	if err := c.Cancel(ctx, v1.ID); err != nil {
		t.Fatal(err)
	}
	got, err := c.Wait(ctx, v2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Status != StatusDone {
		t.Fatalf("queued job ended %s: %s", got.Status, got.Error)
	}
}

// waitStatus polls until the job reaches status (or fails the test after
// a few seconds).
func waitStatus(t *testing.T, srv *Server, id string, want Status) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		j, ok := srv.Job(id)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		if j.Status() == want {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %s", id, want)
}

// TestCancelRunningRareJob: DELETE on a deep-tail rare job must stop it
// mid-round — the satellite contract that a cancelled daemon job stops
// burning shards.
func TestCancelRunningRareJob(t *testing.T) {
	srv := newTestServer(t, Config{ShardBudget: 2})
	c := NewInProcessClient(srv)
	ctx := context.Background()

	spec := JobSpec{
		Kind: KindRare,
		Seed: 9,
		Rare: &RareSpec{BERs: []float64{1e-9}, MaxTrials: 1 << 30, RelErr: 1e-9, Shards: 16},
	}
	v, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, srv, v.ID, StatusRunning)
	time.Sleep(20 * time.Millisecond)

	start := time.Now()
	if err := c.Cancel(ctx, v.ID); err != nil {
		t.Fatal(err)
	}
	got, err := c.Wait(ctx, v.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Status != StatusCanceled {
		t.Fatalf("cancelled job ended %s", got.Status)
	}
	if e := time.Since(start); e > 5*time.Second {
		t.Fatalf("cancellation took %v — the job ran its shards to completion", e)
	}
	// A cancelled job must not poison the cache.
	if _, ok := srv.cache.Get(v.Key); ok {
		t.Fatal("cancelled job populated the cache")
	}
}

// TestJobDeadline: TimeoutMS bounds execution; overruns fail rather than
// run forever.
func TestJobDeadline(t *testing.T) {
	srv := newTestServer(t, Config{ShardBudget: 2})
	c := NewInProcessClient(srv)
	ctx := context.Background()

	spec := JobSpec{
		Kind:      KindRare,
		Seed:      11,
		TimeoutMS: 80,
		Rare:      &RareSpec{BERs: []float64{1e-9}, MaxTrials: 1 << 30, RelErr: 1e-9, Shards: 16},
	}
	v, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Wait(ctx, v.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Status != StatusFailed || !strings.Contains(got.Error, "deadline") {
		t.Fatalf("want deadline failure, got %s: %s", got.Status, got.Error)
	}
}

// TestInflightDedup: an identical spec submitted while the first is still
// executing coalesces onto the same job instead of queueing a duplicate.
func TestInflightDedup(t *testing.T) {
	srv := newTestServer(t, Config{ShardBudget: 1})
	c := NewInProcessClient(srv)
	ctx := context.Background()

	spec := JobSpec{
		Kind: KindRare,
		Seed: 5,
		Rare: &RareSpec{BERs: []float64{1e-9}, MaxTrials: 1 << 15, RelErr: 0, Shards: 32},
	}
	v1, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !v2.Dedup || v2.ID != v1.ID {
		t.Fatalf("identical in-flight spec not coalesced: dedup=%v id=%s (first %s)", v2.Dedup, v2.ID, v1.ID)
	}
	got, err := c.Wait(ctx, v1.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Status != StatusDone {
		t.Fatalf("job ended %s: %s", got.Status, got.Error)
	}
	if srv.Stats().DedupHits != 1 {
		t.Errorf("dedup hit not counted")
	}
}

// TestCacheSpillSurvivesRestart: with a spill directory, a fresh server
// answers a repeat from disk without running the job.
func TestCacheSpillSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	spec := sweepSpec(77)

	first := newTestServer(t, Config{SpillDir: dir})
	res1, err := NewInProcessClient(first).Run(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	first.Close()

	second := newTestServer(t, Config{SpillDir: dir})
	v, err := NewInProcessClient(second).Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Cached || v.Status != StatusDone {
		t.Fatalf("restarted server missed the spill: cached=%v status=%s", v.Cached, v.Status)
	}
	if !bytes.Equal(v.Result, res1) {
		t.Fatal("spilled result differs from the original")
	}
	if st := second.Stats().Cache; st.DiskHits != 1 {
		t.Errorf("disk hit not counted: %+v", st)
	}
}

// TestPriorityOrdering: with a single worker slot, queued jobs run
// highest-priority first, FIFO within a class.
func TestPriorityOrdering(t *testing.T) {
	srv := newTestServer(t, Config{ShardBudget: 1, QueueDepth: 16})
	c := NewInProcessClient(srv)
	ctx := context.Background()

	// Occupy the worker so subsequent submissions queue.
	hog, err := c.Submit(ctx, JobSpec{
		Kind: KindRare,
		Seed: 1,
		Rare: &RareSpec{BERs: []float64{1e-9}, MaxTrials: 1 << 25, RelErr: 0, Shards: 64},
	})
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, srv, hog.ID, StatusRunning)

	low, err := c.Submit(ctx, func() JobSpec { s := sweepSpec(21); s.Priority = 0; return s }())
	if err != nil {
		t.Fatal(err)
	}
	high, err := c.Submit(ctx, func() JobSpec { s := sweepSpec(22); s.Priority = 5; return s }())
	if err != nil {
		t.Fatal(err)
	}

	if err := c.Cancel(ctx, hog.ID); err != nil {
		t.Fatal(err)
	}
	vh, err := c.Wait(ctx, high.ID)
	if err != nil {
		t.Fatal(err)
	}
	vl, err := c.Wait(ctx, low.ID)
	if err != nil {
		t.Fatal(err)
	}
	if vh.Status != StatusDone || vl.Status != StatusDone {
		t.Fatalf("jobs ended %s/%s", vh.Status, vl.Status)
	}
	if !vh.StartedAt.Before(vl.StartedAt) {
		t.Errorf("high-priority job started %v, after low-priority %v", vh.StartedAt, vl.StartedAt)
	}
}

// TestSSEReplayAfterCompletion: a subscriber attaching after the job
// finished still receives the full event history ending in the result.
func TestSSEReplayAfterCompletion(t *testing.T) {
	srv := newTestServer(t, Config{})
	c := NewInProcessClient(srv)
	ctx := context.Background()

	v, err := c.Submit(ctx, smallGridSpec(3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Wait(ctx, v.ID); err != nil {
		t.Fatal(err)
	}

	var types []string
	gotResult := false
	err = c.Stream(ctx, v.ID, func(e Event) error {
		types = append(types, e.Type)
		gotResult = gotResult || e.Type == "result"
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !gotResult {
		t.Fatalf("late subscriber got no result event: %v", types)
	}
	if types[0] != "status" {
		t.Fatalf("replay did not start from the beginning: %v", types)
	}
}

// TestBadSpecsRejected: malformed submissions are 400s, unknown jobs 404.
func TestBadSpecsRejected(t *testing.T) {
	srv := newTestServer(t, Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := NewClient(ts.URL)
	ctx := context.Background()

	for name, spec := range map[string]JobSpec{
		"no payload":    {Kind: KindGrid, Seed: 1},
		"two payloads":  {Kind: KindGrid, Grid: &core.Grid{N: 1}, Sweep: &SweepSpec{BERs: []float64{1e-6}, FlitsPerPoint: 1}},
		"unknown kind":  {Kind: "mystery", Grid: &core.Grid{N: 1}},
		"zero N":        {Kind: KindGrid, Grid: &core.Grid{}},
		"bad sweep BER": {Kind: KindSweep, Sweep: &SweepSpec{BERs: []float64{2}, FlitsPerPoint: 10}},
		"kind mismatch": {Kind: KindRare, Sweep: &SweepSpec{BERs: []float64{1e-6}, FlitsPerPoint: 10}},
	} {
		if _, err := c.Submit(ctx, spec); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}

	if _, err := c.Get(ctx, "j999999-deadbeef"); err == nil {
		t.Error("unknown job id returned a view")
	}
}

// TestSubmitRejectsBytesAfterSpec: a submit body is one spec and nothing
// but JSON whitespace after it; anything else is a 400, not a job for the
// leading spec.
func TestSubmitRejectsBytesAfterSpec(t *testing.T) {
	srv := newTestServer(t, Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	spec, err := json.Marshal(smallGridSpec(3))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		tail string
		want int
	}{
		{` {"kind":"bogus"} garbage`, http.StatusBadRequest},
		{` garbage`, http.StatusBadRequest},
		{`}`, http.StatusBadRequest},
		{" \t\r\n", http.StatusAccepted},
	} {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(string(spec)+tc.tail))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("spec followed by %q: HTTP %d, want %d", tc.tail, resp.StatusCode, tc.want)
		}
	}
	if n := srv.Stats().JobsSubmitted; n != 1 {
		t.Errorf("%d jobs admitted, want the one with a whitespace tail", n)
	}
}

// TestCancelQueuedJobReleasesSlotAndKey pins the two admission-control
// regressions around cancelling a *queued* (never-run) job: its queue
// slot must free immediately — not only when budget frees and the
// dispatcher pops it — and its in-flight key claim must clear, so an
// identical future submission is admitted as a fresh job instead of
// coalescing onto the dead canceled one forever.
func TestCancelQueuedJobReleasesSlotAndKey(t *testing.T) {
	srv := newTestServer(t, Config{ShardBudget: 1, QueueDepth: 1})
	c := NewInProcessClient(srv)
	ctx := context.Background()

	hog, err := c.Submit(ctx, JobSpec{
		Kind: KindRare,
		Seed: 1,
		Rare: &RareSpec{BERs: []float64{1e-9}, MaxTrials: 1 << 26, RelErr: 0, Shards: 64},
	})
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, srv, hog.ID, StatusRunning)

	queued, err := c.Submit(ctx, sweepSpec(31))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Cancel(ctx, queued.ID); err != nil {
		t.Fatal(err)
	}
	got, err := c.Get(ctx, queued.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Status != StatusCanceled {
		t.Fatalf("queued job not canceled: %s", got.Status)
	}

	// The queue slot must be free *now*, while the hog still runs.
	resub, err := c.Submit(ctx, sweepSpec(31))
	if err != nil {
		t.Fatalf("resubmission after queued-cancel rejected: %v", err)
	}
	// And it must be a fresh admission, not a dedup onto the dead job.
	if resub.Dedup || resub.ID == queued.ID {
		t.Fatalf("resubmission coalesced onto the canceled job %s", queued.ID)
	}

	if err := c.Cancel(ctx, hog.ID); err != nil {
		t.Fatal(err)
	}
	final, err := c.Wait(ctx, resub.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != StatusDone {
		t.Fatalf("resubmitted job ended %s: %s", final.Status, final.Error)
	}
}

// TestConcurrentIdenticalSubmitsCoalesce: N simultaneous submissions of
// one uncached spec must produce exactly one executing job — the
// in-flight check and key reservation happen under one lock, so no two
// racers can both miss and both burn the engine.
func TestConcurrentIdenticalSubmitsCoalesce(t *testing.T) {
	srv := newTestServer(t, Config{ShardBudget: 2})
	c := NewInProcessClient(srv)
	ctx := context.Background()

	spec := JobSpec{
		Kind: KindRare,
		Seed: 13,
		Rare: &RareSpec{BERs: []float64{1e-9}, MaxTrials: 1 << 14, RelErr: 0, Shards: 16},
	}
	const n = 20
	ids := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := c.Submit(ctx, spec)
			if err != nil {
				t.Error(err)
				return
			}
			ids[i] = v.ID
		}(i)
	}
	wg.Wait()

	distinct := make(map[string]bool)
	for _, id := range ids {
		if id != "" {
			distinct[id] = true
		}
	}
	if len(distinct) != 1 {
		t.Fatalf("concurrent identical submits produced %d jobs: %v", len(distinct), distinct)
	}
	for id := range distinct {
		if v, err := c.Wait(ctx, id); err != nil || v.Status != StatusDone {
			t.Fatalf("coalesced job ended %v %v", v.Status, err)
		}
	}
	if st := srv.Stats(); st.DedupHits != n-1 {
		t.Errorf("dedup hits %d, want %d", st.DedupHits, n-1)
	}
}

// TestDedupRequiresMatchingScheduling: coalescing shares one job's
// deadline and DELETE semantics, so a same-compute spec with different
// scheduling fields must run as its own job — one client's timeout_ms
// must never fail another client's request.
func TestDedupRequiresMatchingScheduling(t *testing.T) {
	srv := newTestServer(t, Config{ShardBudget: 2})
	c := NewInProcessClient(srv)
	ctx := context.Background()

	base := JobSpec{
		Kind: KindRare,
		Seed: 17,
		Rare: &RareSpec{BERs: []float64{1e-9}, MaxTrials: 1 << 22, RelErr: 0, Shards: 16},
	}
	v1, err := c.Submit(ctx, base)
	if err != nil {
		t.Fatal(err)
	}

	timed := base
	timed.TimeoutMS = 60_000
	v2, err := c.Submit(ctx, timed)
	if err != nil {
		t.Fatal(err)
	}
	if v2.Dedup || v2.ID == v1.ID {
		t.Fatalf("spec with different timeout coalesced onto %s", v1.ID)
	}
	// Both carry the same cache key — the scheduling fields are excluded
	// from the content address on purpose.
	if v2.Key != v1.Key {
		t.Fatalf("keys differ: %s vs %s", v1.Key, v2.Key)
	}

	// An exact resubmission still coalesces.
	v3, err := c.Submit(ctx, base)
	if err != nil {
		t.Fatal(err)
	}
	if !v3.Dedup || v3.ID != v1.ID {
		t.Fatalf("identical spec did not coalesce: dedup=%v id=%s", v3.Dedup, v3.ID)
	}

	c.Cancel(ctx, v1.ID)
	c.Cancel(ctx, v2.ID)
}

// TestCloseCancelsQueuedAndRunningJobs: Close cancels the job holding
// the only worker and the job queued behind it, and returns once the
// running one has observed its cancelled context.
func TestCloseCancelsQueuedAndRunningJobs(t *testing.T) {
	srv := newTestServer(t, Config{ShardBudget: 1})
	hog, _, err := srv.Submit(JobSpec{
		Kind: KindRare,
		Seed: 1,
		Rare: &RareSpec{BERs: []float64{1e-9}, MaxTrials: 1 << 26, RelErr: 0, Shards: 64},
	})
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, srv, hog.ID, StatusRunning)
	queued, _, err := srv.Submit(sweepSpec(93))
	if err != nil {
		t.Fatal(err)
	}
	srv.Close()
	for _, j := range []*Job{hog, queued} {
		if st := j.Status(); st != StatusCanceled {
			t.Errorf("job %s is %s after Close, want %s", j.ID, st, StatusCanceled)
		}
	}
}

// TestClosedServerRejectsCacheHits: Close stops admission for hits and
// misses alike — a shut-down server must not keep serving and mutating
// its registry just because the answer is cached.
func TestClosedServerRejectsCacheHits(t *testing.T) {
	srv := newTestServer(t, Config{})
	c := NewInProcessClient(srv)
	ctx := context.Background()

	spec := sweepSpec(91)
	if _, err := c.Run(ctx, spec); err != nil {
		t.Fatal(err)
	}
	srv.Close()

	if _, _, err := srv.Submit(spec); !errors.Is(err, ErrClosed) {
		t.Fatalf("closed server accepted a cache-hit submission: %v", err)
	}
}

// TestStreamReportsCutFeed: a feed that ends cleanly before its terminal
// event — what a client of the fleet front sees when the member streaming
// the job dies — is an error wrapping io.ErrUnexpectedEOF, not the nil
// that means the job's event log completed.
func TestStreamReportsCutFeed(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		fmt.Fprint(w, "id: 0\nevent: status\ndata: {\"type\":\"status\",\"status\":\"queued\"}\n\n")
	}))
	defer ts.Close()
	var events []Event
	err := NewClient(ts.URL).Stream(context.Background(), "j1", func(e Event) error {
		events = append(events, e)
		return nil
	})
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("a feed cut after %d event(s) returned %v, want io.ErrUnexpectedEOF", len(events), err)
	}
	if len(events) != 1 || events[0].Status != StatusQueued {
		t.Fatalf("events before the cut: %+v", events)
	}
}
