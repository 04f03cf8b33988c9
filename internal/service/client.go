package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
)

// Client is the typed API client. It speaks the same HTTP surface whether
// pointed at a TCP daemon (NewClient) or directly at an in-process Server
// (NewInProcessClient) — the latter routes requests through ServeHTTP
// without a socket, so examples and tests exercise exactly the handlers
// HTTP users hit.
type Client struct {
	base string
	hc   *http.Client
}

// NewClient returns a client for a daemon at base, e.g.
// "http://127.0.0.1:8080".
func NewClient(base string) *Client {
	return &Client{base: strings.TrimRight(base, "/"), hc: &http.Client{}}
}

// NewInProcessClient returns a client wired straight into s.
func NewInProcessClient(s *Server) *Client {
	return &Client{
		base: "http://rxld.inprocess",
		hc:   &http.Client{Transport: inProcessTransport{h: s}},
	}
}

// apiStatusError is a non-2xx response decoded from the error body.
type apiStatusError struct {
	Code    int
	Message string
}

func (e *apiStatusError) Error() string {
	return fmt.Sprintf("service: HTTP %d: %s", e.Code, e.Message)
}

// IsQueueFull reports whether err is the daemon's 429 admission
// rejection — the signal to back off and resubmit.
func IsQueueFull(err error) bool {
	se, ok := err.(*apiStatusError)
	return ok && se.Code == http.StatusTooManyRequests
}

// StatusCode extracts the HTTP status of a daemon error response. ok is
// false for transport-level failures (connection refused, timeouts) —
// the distinction the fleet front uses to tell "the daemon said no"
// (propagate) from "the daemon is gone" (fail over to the next owner).
func StatusCode(err error) (code int, ok bool) {
	se, isAPI := err.(*apiStatusError)
	if !isAPI {
		return 0, false
	}
	return se.Code, true
}

// Send is the client's one request builder and transport call: base URL +
// path, an optional JSON body, optional extra headers, and the context's
// trace request ID propagated — so a hop made on behalf of a traced
// request (a front forwarding a submit or proxying a job handle, a member
// probing a peer's cache) records its spans on the far side under the
// same ID. It returns the daemon's response whatever its status; the
// caller closes the body. Every typed method below goes through it, and
// the fleet front uses it directly to relay responses verbatim.
func (c *Client) Send(ctx context.Context, method, path string, body any, header http.Header) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return nil, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	for k, vs := range header {
		for _, v := range vs {
			req.Header.Add(k, v)
		}
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if rid := obs.RequestID(ctx); rid != "" {
		req.Header.Set(obs.HeaderRequestID, rid)
	}
	return c.hc.Do(req)
}

// statusError decodes a non-2xx response's uniform error body.
func statusError(resp *http.Response) error {
	var ae apiError
	msg := resp.Status
	if json.NewDecoder(resp.Body).Decode(&ae) == nil && ae.Error != "" {
		msg = ae.Error
	}
	return &apiStatusError{Code: resp.StatusCode, Message: msg}
}

// do issues a request and decodes the JSON response into out.
func (c *Client) do(ctx context.Context, method, path string, body, out any) error {
	resp, err := c.Send(ctx, method, path, body, nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		return statusError(resp)
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// Submit posts a job spec. Cache hits come back already StatusDone with
// the result inline and Cached set.
func (c *Client) Submit(ctx context.Context, spec JobSpec) (JobView, error) {
	var v JobView
	err := c.do(ctx, http.MethodPost, "/v1/jobs", spec, &v)
	return v, err
}

// Get fetches a job's current view.
func (c *Client) Get(ctx context.Context, id string) (JobView, error) {
	var v JobView
	err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id, nil, &v)
	return v, err
}

// GetConditional fetches a job's view unless the caller's cached copy is
// still current: etag is the ETag header of a previous fetch (the job's
// content address). notModified=true means the daemon answered 304 and
// the cached copy — result bytes included — is valid; the returned view
// is zero in that case. The ETag of the fresh response (empty until the
// job is done) comes back for the caller to store.
func (c *Client) GetConditional(ctx context.Context, id, etag string) (v JobView, newETag string, notModified bool, err error) {
	var header http.Header
	if etag != "" {
		header = http.Header{"If-None-Match": {etag}}
	}
	resp, err := c.Send(ctx, http.MethodGet, "/v1/jobs/"+id, nil, header)
	if err != nil {
		return v, "", false, err
	}
	defer resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusNotModified:
		return v, etag, true, nil
	case resp.StatusCode >= 300:
		return v, "", false, statusError(resp)
	}
	err = json.NewDecoder(resp.Body).Decode(&v)
	return v, resp.Header.Get("ETag"), false, err
}

// FetchCached asks the daemon for the raw cached result bytes of a
// content address (GET /v1/cache/{key}) — the fleet peer-fetch
// protocol. It never triggers computation. wait > 0 additionally joins
// an in-flight computation of the key on that daemon, blocking until it
// finishes or the budget elapses. ok=false with a nil error is a clean
// miss; a non-nil error means the daemon could not be asked at all.
func (c *Client) FetchCached(ctx context.Context, key string, wait time.Duration) (res []byte, ok bool, err error) {
	path := "/v1/cache/" + key
	if wait > 0 {
		path += "?wait=" + strconv.FormatInt(wait.Milliseconds(), 10)
	}
	resp, err := c.Send(ctx, http.MethodGet, path, nil, nil)
	if err != nil {
		return nil, false, err
	}
	defer resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusNotFound:
		return nil, false, nil
	case resp.StatusCode >= 300:
		return nil, false, statusError(resp)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, false, err
	}
	return b, true, nil
}

// Wait long-polls until the job reaches a terminal status or ctx ends.
func (c *Client) Wait(ctx context.Context, id string) (JobView, error) {
	for {
		var v JobView
		if err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id+"?wait=30000", nil, &v); err != nil {
			return v, err
		}
		if v.Status.Terminal() {
			return v, nil
		}
		if err := ctx.Err(); err != nil {
			return v, err
		}
	}
}

// Cancel requests cancellation of a queued or running job.
func (c *Client) Cancel(ctx context.Context, id string) error {
	return c.do(ctx, http.MethodDelete, "/v1/jobs/"+id, nil, nil)
}

// Run is submit-and-wait: the result bytes of the job, wherever they came
// from (engine, cache, or a deduped in-flight sibling).
func (c *Client) Run(ctx context.Context, spec JobSpec) (json.RawMessage, error) {
	v, err := c.Submit(ctx, spec)
	if err != nil {
		return nil, err
	}
	if !v.Status.Terminal() {
		if v, err = c.Wait(ctx, v.ID); err != nil {
			return nil, err
		}
	}
	if v.Status != StatusDone {
		return nil, fmt.Errorf("service: job %s %s: %s", v.ID, v.Status, v.Error)
	}
	return v.Result, nil
}

// Stream subscribes to a job's SSE feed, invoking fn for every event —
// the full replay first, then live updates — until the terminal event,
// fn's error, or ctx. A nil error from Stream means the job's event log
// completed.
func (c *Client) Stream(ctx context.Context, id string, fn func(Event) error) error {
	resp, err := c.Send(ctx, http.MethodGet, "/v1/jobs/"+id+"/events", nil,
		http.Header{"Accept": {"text/event-stream"}})
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return statusError(resp)
	}

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	var data []byte
	terminal := false
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "data: "):
			data = append(data, line[len("data: "):]...)
		case line == "" && len(data) > 0:
			var e Event
			if err := json.Unmarshal(data, &e); err != nil {
				return fmt.Errorf("service: bad SSE payload: %w", err)
			}
			data = data[:0]
			if err := fn(e); err != nil {
				return err
			}
			if e.Type == "result" || e.Type == "error" {
				terminal = true
			}
		}
	}
	if err := sc.Err(); err != nil && !terminal {
		return err
	}
	return nil
}

// Stats fetches /v1/statsz.
func (c *Client) Stats(ctx context.Context) (Stats, error) {
	var st Stats
	err := c.do(ctx, http.MethodGet, "/v1/statsz", nil, &st)
	return st, err
}

// JobTrace fetches the spans a daemon recorded for a job's request ID
// (GET /v1/jobs/{id}/trace). The returned view carries the request ID,
// the handle for widening the trace across the fleet via TraceByRequestID.
func (c *Client) JobTrace(ctx context.Context, id string) (TraceView, error) {
	var tv TraceView
	err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id+"/trace", nil, &tv)
	return tv, err
}

// TraceByRequestID fetches the spans a daemon recorded under a request
// ID (GET /v1/trace/{rid}). A daemon that never saw the request answers
// 404 — a clean "no spans here", not a failure, for fleet assembly.
func (c *Client) TraceByRequestID(ctx context.Context, rid string) (TraceView, error) {
	var tv TraceView
	err := c.do(ctx, http.MethodGet, "/v1/trace/"+rid, nil, &tv)
	return tv, err
}

// Health probes /v1/healthz, failing fast if the daemon is unreachable.
func (c *Client) Health(ctx context.Context) error {
	ctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	return c.do(ctx, http.MethodGet, "/v1/healthz", nil, nil)
}
