package service

import (
	"context"
	"encoding/json"
	"sync"
	"sync/atomic"
	"time"
)

// Status is a job's lifecycle state.
type Status string

const (
	// StatusQueued: admitted, waiting for a worker allocation.
	StatusQueued Status = "queued"
	// StatusRunning: executing on a granted shard allocation.
	StatusRunning Status = "running"
	// StatusDone: finished successfully; Result holds the document.
	StatusDone Status = "done"
	// StatusFailed: finished with an error (including deadline overrun).
	StatusFailed Status = "failed"
	// StatusCanceled: cancelled before completion (DELETE or shutdown).
	StatusCanceled Status = "canceled"
)

// Terminal reports whether the status is final.
func (s Status) Terminal() bool {
	return s == StatusDone || s == StatusFailed || s == StatusCanceled
}

// Job is the server-side state of one submission.
type Job struct {
	ID   string
	Key  string
	Spec JobSpec // normalized
	rid  string  // request ID of the submission that created the job
	seq  uint64  // admission order, FIFO tiebreak within a priority

	ctx        context.Context
	cancel     context.CancelFunc
	events     *broker
	shardsDone atomic.Int64
	// onTerminal runs exactly once, before the terminal event publishes —
	// the server hooks its registry finalization here so every path to a
	// terminal state (engine completion, queued-job cancellation,
	// shutdown drain) releases the job's in-flight claim, and whatever the
	// hook records (completion count, latency sample, finish span) is
	// already visible to a waiter the terminal event wakes.
	onTerminal func(*Job)

	mu          sync.Mutex
	status      Status
	cached      bool
	peerFetched bool
	workers     int // granted allocation while running
	err         string
	result      json.RawMessage
	submitted   time.Time
	started     time.Time
	finished    time.Time
}

// JobView is the JSON rendering of a job for GET /v1/jobs/{id} and the
// submit response.
type JobView struct {
	ID     string `json:"id"`
	Kind   string `json:"kind"`
	Key    string `json:"key"`
	Status Status `json:"status"`
	// Cached is true when the result came from the content-addressed
	// cache instead of an engine run.
	Cached bool `json:"cached"`
	// Dedup is true (in submit responses) when this submission coalesced
	// onto an identical in-flight job instead of queueing a duplicate.
	Dedup bool `json:"dedup,omitempty"`
	// PeerFetched is true when the result bytes came from a fleet peer's
	// cache (or in-flight computation) instead of a local engine run —
	// byte-identical either way, by the engines' determinism.
	PeerFetched bool `json:"peer_fetched,omitempty"`
	// RequestID is the trace ID of the submission that created the job —
	// the handle GET /v1/jobs/{id}/trace and /v1/trace/{rid} resolve.
	RequestID  string          `json:"request_id,omitempty"`
	Priority   int             `json:"priority,omitempty"`
	Workers    int             `json:"workers,omitempty"`
	ShardsDone int64           `json:"shards_done,omitempty"`
	Error      string          `json:"error,omitempty"`
	Result     json.RawMessage `json:"result,omitempty"`

	SubmittedAt time.Time `json:"submitted_at"`
	StartedAt   time.Time `json:"started_at"`
	FinishedAt  time.Time `json:"finished_at"`
	// WaitMS and RunMS are the queue wait and execution durations of a
	// finished job, in milliseconds.
	WaitMS int64 `json:"wait_ms,omitempty"`
	RunMS  int64 `json:"run_ms,omitempty"`
}

// View snapshots the job.
func (j *Job) View() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := JobView{
		ID:          j.ID,
		Kind:        j.Spec.Kind,
		Key:         j.Key,
		Status:      j.status,
		Cached:      j.cached,
		PeerFetched: j.peerFetched,
		RequestID:   j.rid,
		Priority:    j.Spec.Priority,
		Workers:     j.workers,
		ShardsDone:  j.shardsDone.Load(),
		Error:       j.err,
		Result:      j.result,
		SubmittedAt: j.submitted,
		StartedAt:   j.started,
		FinishedAt:  j.finished,
	}
	if !j.started.IsZero() {
		v.WaitMS = j.started.Sub(j.submitted).Milliseconds()
		if !j.finished.IsZero() {
			v.RunMS = j.finished.Sub(j.started).Milliseconds()
		}
	} else if !j.finished.IsZero() {
		v.WaitMS = j.finished.Sub(j.submitted).Milliseconds()
	}
	return v
}

// Status returns the current lifecycle state.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status
}

// setRunning transitions queued → running and publishes the status event.
// It returns false if the job reached a terminal state first (cancelled
// while queued).
func (j *Job) setRunning(workers int) bool {
	j.mu.Lock()
	if j.status.Terminal() {
		j.mu.Unlock()
		return false
	}
	j.status = StatusRunning
	j.workers = workers
	j.started = time.Now()
	j.mu.Unlock()
	j.events.publish(Event{Type: "status", Status: StatusRunning}, false)
	return true
}

// finish transitions to a terminal state exactly once: run the terminal
// hook, then publish the terminal event ("result" on success, "error"
// otherwise) that wakes Wait, long-polls and SSE streams.
func (j *Job) finish(status Status, result json.RawMessage, errMsg string) {
	j.mu.Lock()
	if j.status.Terminal() {
		j.mu.Unlock()
		return
	}
	j.status = status
	j.result = result
	j.err = errMsg
	j.finished = time.Now()
	j.mu.Unlock()

	if j.onTerminal != nil {
		j.onTerminal(j)
	}
	switch status {
	case StatusDone:
		j.events.publish(Event{Type: "result", Status: status, Result: result}, true)
	default:
		j.events.publish(Event{Type: "error", Status: status, Error: errMsg}, true)
	}
}

// setPeerFetched marks the result as fetched from a fleet peer. Called
// before finish, so every view of the terminal job carries the flag.
func (j *Job) setPeerFetched() {
	j.mu.Lock()
	j.peerFetched = true
	j.mu.Unlock()
}

// Cancel requests cancellation. Queued jobs transition immediately;
// running jobs transition when the engines observe the context (the
// estimator poll period keeps that in the milliseconds).
func (j *Job) Cancel() {
	j.cancel()
	j.mu.Lock()
	queued := j.status == StatusQueued
	j.mu.Unlock()
	if queued {
		j.finish(StatusCanceled, nil, context.Canceled.Error())
	}
}

// progress publishes a runner progress callback as an event.
func (j *Job) progress(done, total int) {
	j.events.publish(Event{
		Type:       "progress",
		Done:       done,
		Total:      total,
		ShardsDone: j.shardsDone.Add(1),
	}, false)
}
