package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// parseWait reads the ?wait=ms long-poll budget: absent means no wait
// (ok with d == 0), negative or non-numeric is rejected, and anything
// past a minute is clamped so a handler goroutine never parks for longer.
func parseWait(r *http.Request) (d time.Duration, ok bool) {
	waitStr := r.URL.Query().Get("wait")
	if waitStr == "" {
		return 0, true
	}
	ms, err := strconv.Atoi(waitStr)
	if err != nil || ms < 0 {
		return 0, false
	}
	if ms > 60_000 {
		ms = 60_000
	}
	return time.Duration(ms) * time.Millisecond, true
}

// maxSpecBody bounds a POST /v1/jobs body at 8 MiB, room for several
// maximal replay traces (65 536 records each). A larger body is answered
// 413 before anything past the bound is read.
const maxSpecBody = 8 << 20

// DecodeSpec reads the POST /v1/jobs body and returns its normalized spec
// and cache key, answering the request itself when it cannot: 413 for a
// body over maxSpecBody, 400 for one the strict decoder or Normalize
// refuses. The daemon and the fleet front both call it.
//
// A body the spec memo holds is answered from it. Any other goes through
// decodeStrict, Normalize and Key, and is stored once accepted.
func DecodeSpec(w http.ResponseWriter, r *http.Request) (norm JobSpec, key string, ok bool) {
	// A declared length over the bound is refused unread.
	tooBig := r.ContentLength > maxSpecBody
	var body []byte
	var err error
	if !tooBig {
		body, err = readWhole(http.MaxBytesReader(w, r.Body, maxSpecBody), r.ContentLength)
		tooBig = err != nil && errors.As(err, new(*http.MaxBytesError))
	}
	if tooBig {
		WriteError(w, http.StatusRequestEntityTooLarge, "decode spec: body over "+strconv.Itoa(maxSpecBody)+" bytes")
		return JobSpec{}, "", false
	}
	if err == nil {
		if e, ok := specs.get(body); ok {
			return e.norm, e.key, true
		}
		norm, err = decodeStrict(body)
	}
	if err != nil {
		WriteError(w, http.StatusBadRequest, "decode spec: "+err.Error())
		return JobSpec{}, "", false
	}
	if norm, err = norm.Normalize(); err != nil {
		WriteError(w, http.StatusBadRequest, err.Error())
		return JobSpec{}, "", false
	}
	key = norm.Key()
	specs.put(body, memoSpec{norm: norm, key: key})
	return norm, key, true
}

// decodeStrict decodes one JobSpec under DisallowUnknownFields and
// requires nothing but JSON whitespace after it.
func decodeStrict(body []byte) (spec JobSpec, err error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	err = dec.Decode(&spec)
	if err == nil {
		if _, tail := dec.Token(); tail != io.EOF {
			err = errors.New("bytes after the spec")
		}
	}
	return spec, err
}

// The spec memo's bounds: as many bodies as the default result cache
// holds results, each a few times a grid spec's size.
const (
	memoEntries = 256
	memoBodyMax = 4 << 10
)

// specMemo maps a submitted body, byte for byte, to its normalized spec
// and cache key. The mapping is a pure function of the bytes: decodeStrict,
// Normalize and Key read nothing else, so an entry never goes stale and
// one memo serves every Server and Front in the process. A client
// resubmitting a spec, or a front forwarding one, sends the same bytes
// each time, so a repeat skips all three. Refused bodies and bodies over
// memoBodyMax are not stored. A full memo drops one entry for each body
// it takes in: the first, in map order, not looked up since it was stored
// or last passed over, and each looked-up entry passed over loses its
// mark. So bodies seen once, such as unique submits, churn through while
// a hot set that is asked for again stays. Entries are shared by every job
// submitted with their body, so nothing may write through a stored
// spec's pointers.
type specMemo struct {
	mu sync.Mutex
	m  map[string]memoSpec
}

type memoSpec struct {
	norm JobSpec
	key  string
	hit  bool // looked up since stored or last passed over
}

var specs = specMemo{m: make(map[string]memoSpec, memoEntries)}

func (c *specMemo) get(body []byte) (memoSpec, bool) {
	c.mu.Lock()
	e, ok := c.m[string(body)]
	if ok && !e.hit {
		e.hit = true
		c.m[string(body)] = e
	}
	c.mu.Unlock()
	return e, ok
}

func (c *specMemo) put(body []byte, e memoSpec) {
	if len(body) > memoBodyMax {
		return
	}
	c.mu.Lock()
	for len(c.m) >= memoEntries {
		for k, e := range c.m {
			if !e.hit {
				delete(c.m, k)
				break
			}
			e.hit = false
			c.m[k] = e
		}
	}
	c.m[string(body)] = e
	c.mu.Unlock()
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	norm, key, ok := DecodeSpec(w, r)
	if !ok {
		return
	}
	j, dedup, err := s.submit(r.Context(), norm, key)
	switch {
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		WriteError(w, http.StatusTooManyRequests, err.Error())
		return
	case err != nil: // ErrClosed, submit's one other refusal
		WriteError(w, http.StatusServiceUnavailable, err.Error())
		return
	}

	v := j.View()
	v.Dedup = dedup
	status := http.StatusAccepted
	if v.Status.Terminal() {
		status = http.StatusOK
	}
	writeJobView(w, r, v, status)
}

// writeJobView writes a job view, attaching cache-validation headers when
// the job carries a result: the ETag is the job's content address (the
// SHA-256 cache key), which by the engines' determinism is also the
// identity of the result bytes. A conditional GET whose If-None-Match
// covers that address short-circuits to 304 with no body — repeat
// watchers of finished jobs stop re-downloading result documents. Only
// GET/HEAD evaluate the precondition (RFC 9110 §13.1.2): a submit
// response must always carry its body, or the caller loses the job ID.
func writeJobView(w http.ResponseWriter, r *http.Request, v JobView, status int) {
	if v.Status == StatusDone && v.Key != "" {
		etag := `"` + v.Key + `"`
		w.Header().Set("ETag", etag)
		if (r.Method == http.MethodGet || r.Method == http.MethodHead) &&
			etagMatches(r.Header.Get("If-None-Match"), etag) {
			w.WriteHeader(http.StatusNotModified)
			return
		}
	}
	sendJobView(w, status, v)
}

// etagMatches implements the weak-comparison If-None-Match rules the 304
// path needs: a literal list of (possibly W/-prefixed) quoted tags, or
// the wildcard.
func etagMatches(header, etag string) bool {
	if header == "" {
		return false
	}
	if strings.TrimSpace(header) == "*" {
		return true
	}
	for _, cand := range strings.Split(header, ",") {
		cand = strings.TrimSpace(cand)
		cand = strings.TrimPrefix(cand, "W/")
		if cand == etag {
			return true
		}
	}
	return false
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		WriteError(w, http.StatusNotFound, "no such job")
		return
	}
	wait, ok := parseWait(r)
	if !ok {
		WriteError(w, http.StatusBadRequest, "bad wait parameter")
		return
	}
	if wait > 0 {
		waitTerminal(r.Context(), j, wait)
	}
	writeJobView(w, r, j.View(), http.StatusOK)
}

// waitTerminal long-polls the job's event log until it is terminal, the
// budget elapses, or the client goes away.
func waitTerminal(ctx context.Context, j *Job, d time.Duration) {
	ctx, cancel := context.WithTimeout(ctx, d)
	defer cancel()
	follow(ctx, j, nil)
}

// follow replays a job's event log and then follows it live, handing each
// batch of new events and the log index of its first to emit (if not
// nil), until the log is terminal, emit returns false, or ctx ends.
func follow(ctx context.Context, j *Job, emit func(from int, evs []Event) bool) {
	for from := 0; ; {
		evs, wake, done := j.events.snapshot(from)
		if emit != nil && len(evs) > 0 && !emit(from, evs) {
			return
		}
		from += len(evs)
		if done {
			return
		}
		select {
		case <-wake:
		case <-ctx.Done():
			return
		}
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		WriteError(w, http.StatusNotFound, "no such job")
		return
	}
	s.CancelJob(j)
	sendJobView(w, http.StatusOK, j.View())
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		WriteError(w, http.StatusNotFound, "no such job")
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		WriteError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	follow(r.Context(), j, func(from int, evs []Event) bool {
		for i, e := range evs {
			data, err := json.Marshal(e)
			if err != nil {
				return false
			}
			fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", from+i, e.Type, data)
		}
		flusher.Flush()
		return true
	})
}

// TraceView is the JSON document of GET /v1/jobs/{id}/trace and
// GET /v1/trace/{rid}: the spans one process recorded under a request
// ID. The fleet front assembles a cross-process trace by fetching this
// document from every member and merging on start time.
type TraceView struct {
	RequestID string     `json:"request_id"`
	JobID     string     `json:"job_id,omitempty"`
	Spans     []obs.Span `json:"spans"`
}

func (s *Server) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		WriteError(w, http.StatusNotFound, "no such job")
		return
	}
	spans := s.tracer.Spans(j.rid)
	if spans == nil {
		spans = []obs.Span{}
	}
	WriteJSON(w, http.StatusOK, TraceView{RequestID: j.rid, JobID: j.ID, Spans: spans})
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	rid := r.PathValue("rid")
	spans := s.tracer.Spans(rid)
	if spans == nil {
		WriteError(w, http.StatusNotFound, "no trace for request id")
		return
	}
	WriteJSON(w, http.StatusOK, TraceView{RequestID: rid, Spans: spans})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, map[string]any{
		"ok":        true,
		"uptime_ms": time.Since(s.start).Milliseconds(),
	})
}

func (s *Server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, s.Stats())
}
