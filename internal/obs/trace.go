package obs

import (
	"container/list"
	"context"
	"crypto/rand"
	"encoding/hex"
	"net/http"
	"sort"
	"sync"
	"time"
)

// HeaderRequestID is the propagation header: every request through a
// daemon or front gets an ID here (generated if the client sent none),
// and every hop a request makes — front → owner, owner → peer probe —
// forwards it, so the spans each process records line up under one ID.
const HeaderRequestID = "X-Rxl-Request-Id"

// Span is one recorded event of a request's lifecycle. Spans from
// different processes merge by request ID; Service/Origin say who
// recorded each one (a daemon's origin is its fleet URL, a front's is
// "front"). Times are wall-clock microseconds so cross-process ordering
// works on one host or NTP-synced hosts — the scale fleet traces live at.
type Span struct {
	Service string            `json:"service"`
	Origin  string            `json:"origin,omitempty"`
	Name    string            `json:"name"`
	StartUS int64             `json:"start_us"`
	DurUS   int64             `json:"dur_us"`
	Attrs   map[string]string `json:"attrs,omitempty"`
}

// Tracer records spans per request ID into a bounded LRU of trace logs.
// Entries exist only for IDs that recorded at least one span, so probe
// and healthz chatter (which records nothing) never evicts real traces.
type Tracer struct {
	service, origin  string
	maxIDs, maxSpans int

	mu     sync.Mutex
	traces map[string]*list.Element
	lru    *list.List // front = most recently touched
}

// traceLog is one request ID's spans.
type traceLog struct {
	rid   string
	spans []Span
}

// NewTracer returns a tracer stamping spans with service/origin, keeping
// at most 1024 request IDs of 256 spans each; spans past an ID's 256th are
// not recorded.
func NewTracer(service, origin string) *Tracer {
	return &Tracer{
		service:  service,
		origin:   origin,
		maxIDs:   1024,
		maxSpans: 256,
		traces:   make(map[string]*list.Element),
		lru:      list.New(),
	}
}

// Middleware stamps every request with a request ID — the caller's
// HeaderRequestID if it sent one (the fleet front and peer fetches do), a
// fresh one otherwise — echoes it on the response, and carries it with the
// tracer in the request context, so handlers record spans under the one ID
// the client saw. Daemon and front both mount their mux behind it.
func (t *Tracer) Middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rid := r.Header.Get(HeaderRequestID)
		if rid == "" {
			rid = NewRequestID()
		}
		w.Header().Set(HeaderRequestID, rid)
		next.ServeHTTP(w, r.WithContext(WithTrace(r.Context(), t, rid)))
	})
}

// Record appends a span to rid's trace. A trace already holding its
// bound of spans does not record this one; the oldest trace is evicted
// past the ID bound.
func (t *Tracer) Record(rid, name string, start time.Time, d time.Duration, attrs map[string]string) {
	if t == nil || rid == "" {
		return
	}
	span := Span{
		Service: t.service,
		Origin:  t.origin,
		Name:    name,
		StartUS: start.UnixMicro(),
		DurUS:   d.Microseconds(),
		Attrs:   attrs,
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	el, ok := t.traces[rid]
	if !ok {
		el = t.lru.PushFront(&traceLog{rid: rid})
		t.traces[rid] = el
		for t.lru.Len() > t.maxIDs {
			tail := t.lru.Back()
			t.lru.Remove(tail)
			delete(t.traces, tail.Value.(*traceLog).rid)
		}
	} else {
		t.lru.MoveToFront(el)
	}
	log := el.Value.(*traceLog)
	if len(log.spans) >= t.maxSpans {
		return
	}
	log.spans = append(log.spans, span)
}

// Spans returns a copy of rid's spans sorted by start time (ties keep
// record order). Nil when the ID recorded nothing here.
func (t *Tracer) Spans(rid string) []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	el, ok := t.traces[rid]
	if !ok {
		t.mu.Unlock()
		return nil
	}
	out := append([]Span(nil), el.Value.(*traceLog).spans...)
	t.mu.Unlock()
	SortSpans(out)
	return out
}

// Size reports how many request IDs hold spans (statsz-style gauges).
func (t *Tracer) Size() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.lru.Len()
}

// SortSpans orders spans by start time, stably — the merge step for
// trace assembly across processes.
func SortSpans(spans []Span) {
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].StartUS < spans[j].StartUS })
}

// NewRequestID returns a fresh 16-hex-char request ID.
func NewRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is a broken platform; fall back to a
		// timestamp so tracing degrades instead of panicking.
		return "t" + hex.EncodeToString([]byte(time.Now().Format("150405.000000")))[:15]
	}
	return hex.EncodeToString(b[:])
}

// ctxKey carries the (tracer, request ID) pair through a request's
// context so deep layers — the peer fetcher, the engines — can record
// spans without threading tracer plumbing through every signature.
type ctxKey struct{}

type ctxRef struct {
	t   *Tracer
	rid string
}

// WithTrace returns a context carrying the tracer and request ID.
func WithTrace(ctx context.Context, t *Tracer, rid string) context.Context {
	return context.WithValue(ctx, ctxKey{}, ctxRef{t, rid})
}

// RequestID extracts the request ID from a trace-carrying context ("" if
// none) — the value HTTP clients propagate in HeaderRequestID.
func RequestID(ctx context.Context) string {
	ref, _ := ctx.Value(ctxKey{}).(ctxRef)
	return ref.rid
}

// Record appends a span to the context's trace, a no-op without one.
// start is when the operation began; the duration is measured to now.
func Record(ctx context.Context, name string, start time.Time, attrs map[string]string) {
	ref, ok := ctx.Value(ctxKey{}).(ctxRef)
	if !ok {
		return
	}
	ref.t.Record(ref.rid, name, start, time.Since(start), attrs)
}
