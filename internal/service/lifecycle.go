package service

import (
	"context"
	"errors"
	"strconv"
	"time"

	"repro/internal/headq"
	"repro/internal/obs"
	"repro/internal/runner"
)

// Submit is the in-process submission path: exactly what POST /v1/jobs
// does, minus HTTP. It returns the job — already done on a cache hit, or
// an existing in-flight job (dedup=true) when an identical spec is still
// executing.
func (s *Server) Submit(spec JobSpec) (j *Job, dedup bool, err error) {
	return s.SubmitCtx(context.Background(), spec)
}

// SubmitCtx is Submit carrying the caller's request context, which (when
// it came through ServeHTTP) holds the request ID the job's trace spans
// record under. The context traces the submission; it does not bound the
// job's lifetime — jobs outlive their submitting requests by design.
func (s *Server) SubmitCtx(ctx context.Context, spec JobSpec) (j *Job, dedup bool, err error) {
	norm, err := spec.Normalize()
	if err != nil {
		return nil, false, err
	}
	return s.submit(ctx, norm, norm.Key())
}

// submit admits a normalized spec under its cache key: a hit, a join
// onto an identical in-flight job, or a new job on the queue. Its only
// refusals are ErrClosed and ErrQueueFull.
func (s *Server) submit(ctx context.Context, norm JobSpec, key string) (j *Job, dedup bool, err error) {
	rid := obs.RequestID(ctx)
	s.tracer.Record(rid, "submit", time.Now(), 0, map[string]string{
		"kind": norm.Kind, "key": key[:8],
	})

	if res, ok := s.cache.Get(key); ok {
		return s.serveHit(rid, norm, key, res)
	}

	// The in-flight lookup and the key reservation happen under one lock
	// acquisition: two concurrent identical submissions must coalesce,
	// never both slip past the check and run the engine twice.
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, false, ErrClosed
	}
	if ex, ok := s.inflight[key]; ok && schedulingEqual(ex.Spec, norm) {
		// Coalescing shares one job — including its deadline and its
		// response to DELETE — so it only applies when the scheduling
		// fields match too; a same-key spec with a different timeout or
		// priority runs on its own rather than inheriting another
		// client's fate. (It cannot claim the in-flight key, so it
		// computes redundantly — the correct price for divergent
		// scheduling demands.)
		s.dedups.Inc()
		s.mu.Unlock()
		// The join is this request's outcome, observed now: it has no job
		// of its own to reach a terminal hook.
		s.reqSeconds[OutcomeInflightJoin].Observe(0)
		s.tracer.Record(rid, "inflight_join", time.Now(), 0, map[string]string{
			"job": ex.ID, "key": key[:8],
		})
		return ex, true, nil
	}
	// Re-check the cache under the lock: an in-flight sibling that just
	// finished writes the cache *before* releasing its key claim
	// (runJob: cache.Put → finish → finalize), so a miss above plus no
	// in-flight entry here guarantees the result truly doesn't exist yet
	// — without this re-check, a submission racing the sibling's finish
	// would recompute bytes the cache already holds.
	if res, ok := s.cache.Get(key); ok {
		s.mu.Unlock()
		return s.serveHit(rid, norm, key, res)
	}
	_, claimed := s.inflight[key] // by a scheduling-divergent twin
	j = s.registerLocked(rid, norm, key)
	// The job's context carries the submitting request's trace, so spans
	// recorded deep in execution (the peer fetcher's probes) land under
	// the same request ID.
	j.ctx, j.cancel = context.WithCancel(obs.WithTrace(context.Background(), s.tracer, rid))
	if !claimed {
		s.inflight[key] = j
	}
	s.mu.Unlock()

	if err := s.sched.submit(j); err != nil {
		s.unregister(j)
		return nil, false, err
	}
	return j, false, nil
}

// serveHit registers a terminal job view for a cache hit. Hits respect
// admission shutdown like misses do: a closed server serves nothing. A
// hit never runs, so it gets no context: it is born, finished and
// retired without anything to cancel.
func (s *Server) serveHit(rid string, norm JobSpec, key string, res []byte) (*Job, bool, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, false, ErrClosed
	}
	j := s.registerLocked(rid, norm, key)
	j.cached = true
	s.mu.Unlock()
	j.finish(StatusDone, res, "")
	return j, false, nil
}

// schedulingEqual reports whether two normalized specs agree on the
// fields excluded from the cache key — the ones that decide when a job
// runs, how long it may take, and (by sharing a job ID) whose DELETE
// cancels it.
func schedulingEqual(a, b JobSpec) bool {
	return a.Priority == b.Priority && a.TimeoutMS == b.TimeoutMS && a.Workers == b.Workers
}

// CancelJob cancels a job and, when it was still queued, frees its
// admission slot immediately — a dead job must not hold QueueDepth
// against live submissions.
func (s *Server) CancelJob(j *Job) {
	j.Cancel()
	s.sched.remove(j)
}

// Job returns the job with the given ID.
func (s *Server) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// registerLocked allocates a job — queued event, terminal hook — and
// adds it to the registry. The caller adds what only a job that will run
// needs (its context, its in-flight claim). Caller holds s.mu.
func (s *Server) registerLocked(rid string, spec JobSpec, key string) *Job {
	s.seq++
	j := &Job{
		ID:         jobID(s.seq, key),
		Key:        key,
		Spec:       spec,
		rid:        rid,
		seq:        s.seq,
		onTerminal: s.finalize,
	}
	j.status = StatusQueued
	j.submitted = time.Now()
	j.events.publish(Event{Type: "status", Status: StatusQueued}, false)

	s.submitted.Inc()
	s.jobs[j.ID] = j
	return j
}

// jobID renders "j<seq, at least six digits>-<key prefix>".
func jobID(seq uint64, key string) string {
	var b [32]byte
	id := append(b[:0], 'j')
	for n := uint64(100000); n > 1 && seq < n; n /= 10 {
		id = append(id, '0')
	}
	id = strconv.AppendUint(id, seq, 10)
	id = append(id, '-')
	return string(append(id, key[:8]...))
}

// unregister removes a job whose admission failed. It leaves the
// finished FIFO alone: the job is not in it, or — cancelled by a DELETE
// racing its admission — retires from it later as a delete of an ID
// already gone.
func (s *Server) unregister(j *Job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.jobs, j.ID)
	if s.inflight[j.Key] == j {
		delete(s.inflight, j.Key)
	}
}

// finalize clears a finished job's in-flight entry, counts it served and
// enters it into the terminal history, retiring the oldest-finished job
// past jobHistory. It is the job's onTerminal hook, so it runs exactly
// once on every path to a terminal state — engine completion,
// cancellation of a job still in the queue, shutdown drain — and an
// identical future submission can never coalesce onto a dead job.
func (s *Server) finalize(j *Job) {
	s.mu.Lock()
	if s.inflight[j.Key] == j {
		delete(s.inflight, j.Key)
	}
	s.completed.Inc()
	s.finished, s.finishedHead = headq.Compact(s.finished, s.finishedHead)
	s.finished = append(s.finished, j)
	if len(s.finished)-s.finishedHead > jobHistory {
		delete(s.jobs, s.finished[s.finishedHead].ID)
		s.finished[s.finishedHead] = nil
		s.finishedHead++
	}
	s.mu.Unlock()
	s.observeJob(j)
}

// runJob is the scheduler's execution callback: size a runner pool to the
// granted allocation, bridge its progress into the job's event stream,
// run the engine, populate the cache on success. Fleet members first ask
// the key's owner for the bytes (fetchFromPeer): a daemon that is not the
// owner of a key fills from the daemon that is — or joins its in-flight
// computation — instead of re-running engines. Either way the result
// bytes are the ones the spec determines; only the source differs.
func (s *Server) runJob(j *Job, workers int) {
	if !j.setRunning(workers) {
		// Cancelled while queued; finish already ran the terminal hook.
		return
	}
	j.mu.Lock()
	submitted, started := j.submitted, j.started
	j.mu.Unlock()
	s.tracer.Record(j.rid, "queue_wait", submitted, started.Sub(submitted), nil)
	s.tracer.Record(j.rid, "admission_grant", started, 0, map[string]string{
		"workers": strconv.Itoa(workers), "job": j.ID,
	})
	ctx := j.ctx
	if j.Spec.TimeoutMS > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(j.Spec.TimeoutMS)*time.Millisecond)
		defer cancel()
	}
	res, err := s.fetchFromPeer(ctx, j)
	if res == nil && err == nil {
		pool := runner.Pool{Workers: workers, BaseSeed: j.Spec.Seed, Progress: j.progress}
		runStart := time.Now()
		res, err = execute(ctx, j.Spec, pool)
		s.tracer.Record(j.rid, "run", runStart, time.Since(runStart), map[string]string{
			"kind": j.Spec.Kind, "shards": strconv.FormatInt(j.shardsDone.Load(), 10),
		})
	}
	switch {
	case err == nil:
		cw := time.Now()
		s.cache.Put(j.Key, res)
		s.tracer.Record(j.rid, "cache_write", cw, time.Since(cw), nil)
		j.finish(StatusDone, res, "")
	case errors.Is(err, context.Canceled):
		j.finish(StatusCanceled, nil, err.Error())
	case errors.Is(err, context.DeadlineExceeded):
		j.finish(StatusFailed, nil, "deadline exceeded")
	default:
		j.finish(StatusFailed, nil, err.Error())
	}
}
