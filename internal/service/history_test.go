package service

import (
	"context"
	"testing"
)

// gatedServer is a one-shard daemon whose misses wait in PeerFetch until
// their key is released (or the job is cancelled), so a test decides
// when each live job finishes. The hot spec is answered at once and then
// served from cache: submitting it again is a cheap hit.
type gatedServer struct {
	*Server
	hot  JobSpec
	gate map[string]chan struct{} // key → closed to let that job finish
}

func newGatedServer(t *testing.T, cfg Config, gated ...JobSpec) *gatedServer {
	t.Helper()
	g := &gatedServer{hot: smallGridSpec(1), gate: map[string]chan struct{}{}}
	for _, spec := range gated {
		norm, err := spec.Normalize()
		if err != nil {
			t.Fatal(err)
		}
		g.gate[norm.Key()] = make(chan struct{})
	}
	cfg.ShardBudget = 1
	cfg.PeerFetch = func(ctx context.Context, key string) ([]byte, bool) {
		if gate, ok := g.gate[key]; ok {
			select {
			case <-gate:
			case <-ctx.Done():
				return nil, false
			}
		}
		return []byte(`{"fetched":true}`), true
	}
	g.Server = newTestServer(t, cfg)
	waitStatus(t, g.Server, g.submit(t, g.hot).ID, StatusDone)
	return g
}

// submit admits spec and returns its job.
func (g *gatedServer) submit(t *testing.T, spec JobSpec) *Job {
	t.Helper()
	j, _, err := g.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

// release lets the gated job of spec finish.
func (g *gatedServer) release(t *testing.T, spec JobSpec) {
	t.Helper()
	norm, err := spec.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	close(g.gate[norm.Key()])
}

// census counts the registry's terminal and live jobs and checks the
// finished FIFO holds exactly the terminal ones.
func (g *gatedServer) census(t *testing.T) (terminal, live int) {
	t.Helper()
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, j := range g.jobs {
		if j.Status().Terminal() {
			terminal++
		} else {
			live++
		}
	}
	if held := len(g.finished) - g.finishedHead; held != terminal {
		t.Fatalf("finished FIFO holds %d jobs, registry %d terminal ones", held, terminal)
	}
	return terminal, live
}

// onlyJobID returns the ID of the only job in the registry.
func (g *gatedServer) onlyJobID(t *testing.T) string {
	t.Helper()
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.jobs) != 1 {
		t.Fatalf("registry holds %d jobs, want 1", len(g.jobs))
	}
	for id := range g.jobs {
		return id
	}
	return ""
}

func (g *gatedServer) has(id string) bool {
	_, ok := g.Job(id)
	return ok
}

// TestJobHistoryKeepsLiveJobs: however many jobs pass through, the
// registry holds jobHistory terminal jobs plus every queued and running
// one.
func TestJobHistoryKeepsLiveJobs(t *testing.T) {
	running, queued := smallGridSpec(2), smallGridSpec(3)
	g := newGatedServer(t, Config{}, running, queued)
	a := g.submit(t, running)
	waitStatus(t, g.Server, a.ID, StatusRunning)
	b := g.submit(t, queued) // the one shard is taken: b waits in the queue

	for i := 0; i < 3*jobHistory+7; i++ {
		g.submit(t, g.hot)
	}
	terminal, live := g.census(t)
	if terminal != jobHistory || live != 2 || !g.has(a.ID) || !g.has(b.ID) {
		t.Fatalf("registry holds %d terminal and %d live jobs (running kept: %v, queued kept: %v); want %d and 2",
			terminal, live, g.has(a.ID), g.has(b.ID), jobHistory)
	}
	if st := b.Status(); st != StatusQueued {
		t.Fatalf("queued job is %s", st)
	}
}

// TestJobHistoryRetiresOldestFinished: past jobHistory the job that
// finished first is retired, not the one submitted first — a long job
// that just finished stays readable while older-finished hits go.
func TestJobHistoryRetiresOldestFinished(t *testing.T) {
	long := smallGridSpec(2)
	g := newGatedServer(t, Config{}, long)
	primed := g.onlyJobID(t) // the hot key's own job, first to finish
	a := g.submit(t, long)
	waitStatus(t, g.Server, a.ID, StatusRunning)
	hits := make([]*Job, jobHistory)
	for i := range hits[:jobHistory-1] {
		hits[i] = g.submit(t, g.hot)
	}
	if terminal, _ := g.census(t); terminal != jobHistory {
		t.Fatalf("%d terminal jobs before the long job finishes, want %d", terminal, jobHistory)
	}

	g.release(t, long)
	waitStatus(t, g.Server, a.ID, StatusDone)
	if g.has(primed) || !g.has(a.ID) || !g.has(hits[0].ID) {
		t.Fatalf("after the long job finished: first-finished kept %v, long job kept %v, first hit kept %v",
			g.has(primed), g.has(a.ID), g.has(hits[0].ID))
	}
	hits[jobHistory-1] = g.submit(t, g.hot)
	if g.has(hits[0].ID) || !g.has(hits[1].ID) || !g.has(a.ID) {
		t.Fatalf("after one more hit: first hit kept %v, second hit kept %v, long job kept %v",
			g.has(hits[0].ID), g.has(hits[1].ID), g.has(a.ID))
	}
	if terminal, live := g.census(t); terminal != jobHistory || live != 0 {
		t.Fatalf("registry holds %d terminal and %d live jobs, want %d and 0", terminal, live, jobHistory)
	}
}

// TestUnregisterAfterQueueFull: a submission the full queue rejects
// leaves no trace — not in the registry, not as an in-flight claim — and
// the admitted jobs keep theirs.
func TestUnregisterAfterQueueFull(t *testing.T) {
	running, queued, rejected := smallGridSpec(2), smallGridSpec(3), smallGridSpec(4)
	g := newGatedServer(t, Config{QueueDepth: 1}, running, queued, rejected)
	a := g.submit(t, running)
	waitStatus(t, g.Server, a.ID, StatusRunning)
	b := g.submit(t, queued)

	before, _ := g.census(t)
	if _, _, err := g.Submit(rejected); err != ErrQueueFull {
		t.Fatalf("third miss: %v, want ErrQueueFull", err)
	}
	terminal, live := g.census(t)
	g.mu.Lock()
	jobs, claims := len(g.jobs), len(g.inflight)
	claimA, claimB := g.inflight[a.Key] == a, g.inflight[b.Key] == b
	g.mu.Unlock()
	if terminal != before || live != 2 || jobs != before+2 || claims != 2 || !claimA || !claimB {
		t.Fatalf("after the rejection: %d jobs (%d terminal, %d live), %d in-flight claims (running %v, queued %v)",
			jobs, terminal, live, claims, claimA, claimB)
	}
}
