package service

import (
	"container/heap"
	"errors"
	"sync"
)

// ErrQueueFull is returned (and mapped to 429) when a submission would
// exceed the bounded job queue — the admission-control backpressure
// signal: clients retry later instead of piling work onto an unbounded
// backlog.
var ErrQueueFull = errors.New("service: job queue full")

// ErrClosed is returned for submissions after shutdown began.
var ErrClosed = errors.New("service: server closed")

// scheduler owns admission: a bounded priority queue of jobs and a fixed
// shard budget the running set draws worker allocations from.
//
// Invariants, asserted by test:
//
//  1. inUse ≤ budget at all times — the sum of granted worker
//     allocations across running jobs never exceeds the budget, so the
//     machine's shard concurrency is bounded by construction (each job's
//     runner pool is sized to its grant).
//  2. Queue order is (higher priority, then FIFO). Dispatch never
//     reorders equal-priority jobs.
//  3. A job is dispatched only when at least one worker is free; its
//     grant is min(requested, free budget), at least 1 — a wide job
//     shrinks to fit rather than starving behind the running set
//     (results are worker-count independent, so shrinking is safe).
//
// Dispatch is inline: only a submit and a running job's release of its
// grant can change what may start, so each calls startLocked, and no
// goroutine runs while nothing executes.
type scheduler struct {
	budget int
	depth  int

	mu      sync.Mutex
	queue   jobQueue
	inUse   int
	peak    int
	running map[*Job]bool
	closed  bool

	run func(j *Job, workers int) // set by the server; executes one job
	wg  sync.WaitGroup            // running job goroutines
}

// newScheduler returns an empty scheduler; it starts goroutines only to
// run jobs.
func newScheduler(budget, depth int, run func(*Job, int)) *scheduler {
	return &scheduler{budget: budget, depth: depth, run: run, running: make(map[*Job]bool)}
}

// submit admits a job to the queue or rejects it with ErrQueueFull.
func (s *scheduler) submit(j *Job) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if s.queue.Len() >= s.depth {
		return ErrQueueFull
	}
	heap.Push(&s.queue, j)
	s.startLocked()
	return nil
}

// startLocked pops jobs in priority order while budget is free, grants
// each an allocation, and hands it to run on its own goroutine, which
// releases the grant and calls startLocked again when the job returns.
// Caller holds s.mu.
func (s *scheduler) startLocked() {
	for !s.closed && s.queue.Len() > 0 && s.inUse < s.budget {
		j := heap.Pop(&s.queue).(*Job)
		if j.Status().Terminal() {
			continue // cancelled while queued; drop without charging the budget
		}
		// A job that leaves Workers at 0 asks for the whole budget.
		grant := s.budget - s.inUse
		if w := j.Spec.Workers; w > 0 && w < grant {
			grant = w
		}
		s.inUse += grant
		s.peak = max(s.peak, s.inUse)
		s.running[j] = true
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.run(j, grant)
			s.mu.Lock()
			s.inUse -= grant
			delete(s.running, j)
			s.startLocked()
			s.mu.Unlock()
		}()
	}
}

// remove takes a job out of the pending queue (no-op if it is not
// queued), immediately freeing its admission slot — a cancelled queued
// job must not hold QueueDepth against live submissions while it waits
// to be popped.
func (s *scheduler) remove(j *Job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, q := range s.queue {
		if q == j {
			heap.Remove(&s.queue, i)
			return
		}
	}
}

// close stops dispatching and cancels every job it holds: queued jobs
// end at once, running ones keep their grants until they observe their
// cancelled contexts and return.
func (s *scheduler) close() {
	s.mu.Lock()
	s.closed = true
	jobs := s.queue
	s.queue = nil
	for j := range s.running {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	for _, j := range jobs {
		j.Cancel()
	}
}

// wait blocks until every running job goroutine exits.
func (s *scheduler) wait() { s.wg.Wait() }

// snapshot returns (queued, running, inUse, peak).
func (s *scheduler) snapshot() (queued, running, inUse, peak int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.queue.Len(), len(s.running), s.inUse, s.peak
}

// jobQueue is a max-heap on (priority, FIFO sequence).
type jobQueue []*Job

func (q jobQueue) Len() int { return len(q) }
func (q jobQueue) Less(i, j int) bool {
	if q[i].Spec.Priority != q[j].Spec.Priority {
		return q[i].Spec.Priority > q[j].Spec.Priority
	}
	return q[i].seq < q[j].seq
}
func (q jobQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *jobQueue) Push(x any)   { *q = append(*q, x.(*Job)) }
func (q *jobQueue) Pop() any {
	old := *q
	n := len(old)
	j := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return j
}
