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
	"time"

	"repro/internal/core"
	"repro/internal/link"
	"repro/internal/obs"
	"repro/internal/sim"
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

// DecodeSpec reads the POST /v1/jobs body strictly — unknown fields are a
// client error, not silently dropped parameters, and so is anything but
// JSON whitespace after the spec — answering 400 itself when it cannot.
// The daemon and the fleet front both call it.
//
// It reads the body whole and hands it to readSpec, a hand reader of
// exactly the form json.Marshal writes a grid spec in — the form every
// Client submission and every front forward takes. Any other body goes
// to decodeStrict, which returns the spec and the error it always has:
// FuzzDecodeSpec holds the two paths equal wherever the reader answers.
func DecodeSpec(w http.ResponseWriter, r *http.Request) (spec JobSpec, ok bool) {
	body, err := readWhole(r.Body, r.ContentLength)
	if err == nil {
		if spec, ok = readSpec(body); ok {
			return spec, true
		}
		spec, err = decodeStrict(body)
	}
	if err != nil {
		WriteError(w, http.StatusBadRequest, "decode spec: "+err.Error())
		return spec, false
	}
	return spec, true
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

// readSpec is DecodeSpec's hand reader. It takes a grid spec in the form
// json.Marshal(JobSpec) writes: kind and seed, the omitempty priority,
// timeout_ms and workers, then the grid payload — core.Grid's fields in
// declaration order, its Base with a null LinkConfig, each axis null or
// an array — and "}" with nothing after it. Numbers go through strconv
// as encoding/json's do. ok is false as soon as the body departs from
// that form: another kind's payload, whitespace, reordered, repeated or
// case-folded keys, an escaped string or a LinkConfig.
func readSpec(b []byte) (s JobSpec, ok bool) {
	r := viewReader{b: b}
	r.expect(`{"kind":`)
	// The kind every spec this reader takes names: no copy of it.
	if s.Kind = KindGrid; !r.skip(`"grid"`) {
		s.Kind = r.str()
	}
	r.expect(`,"seed":`)
	s.Seed = r.uint64()
	if r.skip(`,"priority":`) {
		s.Priority = r.int()
	}
	if r.skip(`,"timeout_ms":`) {
		s.TimeoutMS = r.int64()
	}
	if r.skip(`,"workers":`) {
		s.Workers = r.int()
	}
	r.expect(`,"grid":{"Base":{"Protocol":`)
	g := new(core.Grid)
	c := &g.Base
	c.Protocol = link.Protocol(r.int())
	r.expect(`,"Levels":`)
	c.Levels = r.int()
	r.expect(`,"BER":`)
	c.BER = r.float64()
	r.expect(`,"BurstProb":`)
	c.BurstProb = r.float64()
	r.expect(`,"InternalFlipProb":`)
	c.InternalFlipProb = r.float64()
	r.expect(`,"Seed":`)
	c.Seed = r.uint64()
	r.expect(`,"LinkConfig":null,"NoFastPath":`)
	c.NoFastPath = r.bool()
	r.expect(`,"NoExpress":`)
	c.NoExpress = r.bool()
	r.expect(`,"Serialization":`)
	c.Serialization = sim.Time(r.int64())
	r.expect(`,"Propagation":`)
	c.Propagation = sim.Time(r.int64())
	r.expect(`,"SwitchLatency":`)
	c.SwitchLatency = sim.Time(r.int64())
	r.expect(`},"Protocols":`)
	if r.list() {
		for g.Protocols = []link.Protocol{}; r.next(len(g.Protocols)); {
			g.Protocols = append(g.Protocols, link.Protocol(r.int()))
		}
	}
	r.expect(`,"Levels":`)
	if r.list() {
		for g.Levels = []int{}; r.next(len(g.Levels)); {
			g.Levels = append(g.Levels, r.int())
		}
	}
	r.expect(`,"BERs":`)
	if r.list() {
		for g.BERs = []float64{}; r.next(len(g.BERs)); {
			g.BERs = append(g.BERs, r.float64())
		}
	}
	r.expect(`,"Seeds":`)
	if r.list() {
		for g.Seeds = []uint64{}; r.next(len(g.Seeds)); {
			g.Seeds = append(g.Seeds, r.uint64())
		}
	}
	r.expect(`,"N":`)
	g.N = r.int()
	r.expect("}}")
	s.Grid = g
	return s, !r.bad && len(r.b) == 0
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	spec, ok := DecodeSpec(w, r)
	if !ok {
		return
	}
	j, dedup, err := s.SubmitCtx(r.Context(), spec)
	switch {
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		WriteError(w, http.StatusTooManyRequests, err.Error())
		return
	case errors.Is(err, ErrClosed):
		WriteError(w, http.StatusServiceUnavailable, err.Error())
		return
	case err != nil:
		WriteError(w, http.StatusBadRequest, err.Error())
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
	WriteJobView(w, status, v)
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
	WriteJobView(w, http.StatusOK, j.View())
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
