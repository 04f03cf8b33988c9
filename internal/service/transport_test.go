package service

import (
	"context"
	"io"
	"net/http"
	"strings"
	"testing"
)

// TestInProcessTransport pins both in-process paths against a bare
// handler: a plain request is answered whole, with the headers as of
// WriteHeader and the status net/http would default; a handler panic
// reaches the caller as an error on either path, never a hang.
func TestInProcessTransport(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /late-header", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Early", "1")
		io.WriteString(w, "body")
		w.Header().Set("X-Late", "1") // after the headers went out: not sent
	})
	mux.HandleFunc("GET /silent", func(w http.ResponseWriter, r *http.Request) {})
	mux.HandleFunc("GET /panic", func(w http.ResponseWriter, r *http.Request) { panic("boom") })
	c := &Client{base: "http://inprocess", hc: &http.Client{Transport: inProcessTransport{h: mux}}}
	ctx := context.Background()

	resp, err := c.Send(ctx, http.MethodGet, "/late-header", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || string(body) != "body" || resp.ContentLength != 4 || resp.StatusCode != http.StatusOK ||
		resp.Header.Get("X-Early") != "1" || resp.Header.Get("X-Late") != "" {
		t.Fatalf("buffered reply: %d %q (len %d, %v), headers %v", resp.StatusCode, body, resp.ContentLength, err, resp.Header)
	}

	resp, err = c.Send(ctx, http.MethodGet, "/silent", nil, nil)
	if err != nil || resp.StatusCode != http.StatusOK || resp.ContentLength != 0 {
		t.Fatalf("handler that wrote nothing: %v, %v", resp, err)
	}
	resp.Body.Close()

	if _, err := c.Send(ctx, http.MethodGet, "/panic", nil, nil); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("buffered panic: %v", err)
	}
	resp, err = c.Send(ctx, http.MethodGet, "/panic", nil, http.Header{"Accept": {"text/event-stream"}})
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if _, err := io.ReadAll(resp.Body); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("streamed panic: %v", err)
	}
}
