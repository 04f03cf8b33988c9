package service

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"sync"
)

// inProcessTransport is an http.RoundTripper that dispatches requests
// straight into an http.Handler. A request that asks for an event stream
// (Accept: text/event-stream) runs the handler on a goroutine and streams
// the response body through a pipe: unlike httptest.ResponseRecorder it
// does not buffer the handler to completion, so each Flush-ed SSE event
// is readable while the handler is still running. Every other request
// runs the handler on the caller's goroutine into a buffer — no
// goroutine, no pipe. Either way the in-process client is
// byte-equivalent to a TCP client without ever opening a socket.
type inProcessTransport struct {
	h http.Handler
}

// RoundTrip implements http.RoundTripper.
func (t inProcessTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Header.Get("Accept") == "text/event-stream" {
		return t.stream(req)
	}
	if req.Body != nil {
		defer req.Body.Close()
	}
	rw := &bufferedResponseWriter{header: make(http.Header)}
	if err := serveRecovering(t.h, rw, req); err != nil {
		return nil, err
	}
	rw.WriteHeader(http.StatusOK) // a handler that wrote nothing answered 200
	return response(req, rw.status, rw.sent, io.NopCloser(bytes.NewReader(rw.body)), int64(len(rw.body))), nil
}

// serveRecovering runs the handler, turning a panic into an error so it
// reaches the client instead of taking the process down.
func serveRecovering(h http.Handler, w http.ResponseWriter, req *http.Request) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("service: in-process handler panic: %v", p)
		}
	}()
	h.ServeHTTP(w, req)
	return nil
}

// response wraps a handler's answer as the client sees it.
func response(req *http.Request, status int, header http.Header, body io.ReadCloser, length int64) *http.Response {
	return &http.Response{
		StatusCode:    status,
		Status:        http.StatusText(status),
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        header,
		Body:          body,
		ContentLength: length,
		Request:       req,
	}
}

// stream serves an event-stream request on its own goroutine through a
// pipe, returning as soon as the handler has sent its headers.
func (t inProcessTransport) stream(req *http.Request) (*http.Response, error) {
	pr, pw := io.Pipe()
	rw := &pipeResponseWriter{
		header: make(http.Header),
		pw:     pw,
		ready:  make(chan struct{}),
	}
	go func() {
		err := serveRecovering(t.h, rw, req)
		rw.start() // unblock the waiter if headers never went out
		pw.CloseWithError(err)
	}()

	<-rw.ready
	return response(req, rw.status, rw.snapshot, pr, -1), nil
}

// bufferedResponseWriter collects a handler's whole response.
type bufferedResponseWriter struct {
	header http.Header
	sent   http.Header // the headers as of WriteHeader
	status int
	body   []byte
}

// Header implements http.ResponseWriter.
func (w *bufferedResponseWriter) Header() http.Header { return w.header }

// WriteHeader freezes the headers: like net/http, later changes to the
// handler's map are not sent. The first call wins.
func (w *bufferedResponseWriter) WriteHeader(status int) {
	if w.sent == nil {
		w.status = status
		w.sent = w.header
		w.header = make(http.Header)
	}
}

// Write implements io.Writer, defaulting the status like net/http does.
func (w *bufferedResponseWriter) Write(p []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	w.body = append(w.body, p...)
	return len(p), nil
}

// Flush implements http.Flusher. The response is delivered when the
// handler returns, so a stream requested without the event-stream
// Accept header arrives whole.
func (w *bufferedResponseWriter) Flush() {}

// pipeResponseWriter adapts a pipe into an http.ResponseWriter with
// Flush support (flushing is inherent: pipe writes rendezvous with the
// reader).
type pipeResponseWriter struct {
	header   http.Header
	snapshot http.Header // cloned at WriteHeader time
	pw       *io.PipeWriter
	status   int

	once  sync.Once
	ready chan struct{}
}

// Header implements http.ResponseWriter.
func (w *pipeResponseWriter) Header() http.Header { return w.header }

// WriteHeader freezes the headers and releases the RoundTrip waiter.
func (w *pipeResponseWriter) WriteHeader(status int) {
	w.once.Do(func() {
		w.status = status
		w.snapshot = w.header.Clone()
		close(w.ready)
	})
}

// start ensures the response is released even if the handler wrote
// nothing.
func (w *pipeResponseWriter) start() { w.WriteHeader(http.StatusOK) }

// Write implements io.Writer, defaulting the status like net/http does.
func (w *pipeResponseWriter) Write(p []byte) (int, error) {
	w.start()
	return w.pw.Write(p)
}

// Flush implements http.Flusher. Nothing is buffered, so it is a no-op —
// its presence is what lets SSE handlers stream.
func (w *pipeResponseWriter) Flush() {}
