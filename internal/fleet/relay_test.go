package fleet

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/service"
)

// replyRecorder is a member's handler that keeps the last body it wrote
// for each "METHOD path?query". A write is recorded before it goes out,
// so the body is in place by the time the front has read it.
type replyRecorder struct {
	h    http.Handler
	mu   sync.Mutex
	last map[string][]byte
}

type teeWriter struct {
	http.ResponseWriter
	rr  *replyRecorder
	req string
}

func (t *teeWriter) Write(b []byte) (int, error) {
	t.rr.mu.Lock()
	t.rr.last[t.req] = append(t.rr.last[t.req], b...)
	t.rr.mu.Unlock()
	return t.ResponseWriter.Write(b)
}

func (rr *replyRecorder) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	req := r.Method + " " + r.URL.RequestURI()
	rr.mu.Lock()
	rr.last[req] = nil
	rr.mu.Unlock()
	rr.h.ServeHTTP(&teeWriter{ResponseWriter: w, rr: rr, req: req}, r)
}

func (rr *replyRecorder) reply(t *testing.T, req string) []byte {
	t.Helper()
	rr.mu.Lock()
	defer rr.mu.Unlock()
	b, ok := rr.last[req]
	if !ok {
		t.Fatalf("no member answered %s", req)
	}
	return b
}

// frontOver starts a front, without probes, over the given members and
// returns it, its URL and the members' URLs.
func frontOver(t *testing.T, members ...http.Handler) (*Front, string, []string) {
	t.Helper()
	var urls []string
	for _, h := range members {
		ts := httptest.NewServer(h)
		t.Cleanup(ts.Close)
		urls = append(urls, ts.URL)
	}
	front, err := NewFront(FrontConfig{Peers: urls, ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	frontTS := httptest.NewServer(front)
	t.Cleanup(func() { front.Close(); frontTS.Close() })
	return front, frontTS.URL, urls
}

// do sends one request to the front and returns its status and body,
// checking that Content-Length counts the body.
func do(t *testing.T, method, url, body string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if cl := resp.Header.Get("Content-Length"); cl != strconv.Itoa(len(b)) {
		t.Fatalf("%s %s: Content-Length %q for a %d-byte body", method, url, cl, len(b))
	}
	return resp.StatusCode, b
}

// TestFrontRelaysMemberBytes: through a 2-member front, every job view
// a client gets — a submit miss, its long poll, a repeat submit's hit and
// a DELETE — is the member's reply for the local ID byte for byte, with
// only the front's "p<i>~" handle spliced in front of the ID.
func TestFrontRelaysMemberBytes(t *testing.T) {
	var recs []*replyRecorder
	var members []http.Handler
	for i := 0; i < 2; i++ {
		srv, err := service.New(service.Config{ShardBudget: 2})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Close)
		rr := &replyRecorder{h: srv, last: map[string][]byte{}}
		recs = append(recs, rr)
		members = append(members, rr)
	}
	front, url, urls := frontOver(t, members...)
	spec, err := json.Marshal(gridSpec(81))
	if err != nil {
		t.Fatal(err)
	}

	var handle, localID string
	var owner *replyRecorder
	check := func(name string, wantStatus int, method, path string, body string) []byte {
		t.Helper()
		status, got := do(t, method, url+path, body)
		if status != wantStatus {
			t.Fatalf("%s: HTTP %d %s, want %d", name, status, got, wantStatus)
		}
		if owner == nil {
			var v service.JobView
			if err := json.Unmarshal(got, &v); err != nil {
				t.Fatal(err)
			}
			p, id, ok := front.resolveJobID(v.ID)
			if !ok {
				t.Fatalf("%s: unroutable handle %q", name, v.ID)
			}
			handle, localID = strings.TrimSuffix(v.ID, id), id
			owner = recs[slices.Index(urls, p.url)]
		}
		memberPath := strings.Replace(path, handle+localID, localID, 1)
		member := owner.reply(t, method+" "+memberPath)
		want := bytes.Replace(member, []byte(viewHead), []byte(viewHead+handle), 1)
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: the front wrote\n%s\nthe member wrote\n%s", name, got, member)
		}
		return got
	}
	check("submit miss", http.StatusAccepted, http.MethodPost, "/v1/jobs", string(spec))
	if done := check("long poll", http.StatusOK, http.MethodGet, "/v1/jobs/"+handle+localID+"?wait=60000", ""); !bytes.Contains(done, []byte(`"result":`)) {
		t.Fatalf("long poll answered without a result: %s", done)
	}
	if hit := check("repeat submit", http.StatusOK, http.MethodPost, "/v1/jobs", string(spec)); !bytes.Contains(hit, []byte(`"cached":true`)) {
		t.Fatalf("repeat submit was not a hit: %s", hit)
	}
	check("delete", http.StatusOK, http.MethodDelete, "/v1/jobs/"+handle+localID, "")
}

// TestFrontRelayRefusesForeignViews: a member's 2xx job view that is
// valid JSON but not in the writer's form, ID first, is answered 502 —
// the front splices handles into member bytes and never re-encodes. A
// non-2xx answer goes out as sent, whatever its body.
func TestFrontRelayRefusesForeignViews(t *testing.T) {
	const foreign = `{"kind":"grid","id":"j000001-00000000","key":"k","status":"done","cached":true,"submitted_at":"2026-01-01T00:00:00Z","started_at":"0001-01-01T00:00:00Z","finished_at":"0001-01-01T00:00:00Z"}` + "\n"
	stub := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/jobs/j000002-00000000" {
			w.Header().Set("Content-Type", "text/plain")
			w.Header().Set("Retry-After", "7")
			w.WriteHeader(http.StatusServiceUnavailable)
			io.WriteString(w, "upstream warming up\n")
			return
		}
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, foreign)
	})
	_, url, _ := frontOver(t, stub)
	spec, err := json.Marshal(gridSpec(82))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ method, path, body string }{
		{http.MethodPost, "/v1/jobs", string(spec)},
		{http.MethodGet, "/v1/jobs/p0~j000001-00000000", ""},
		{http.MethodDelete, "/v1/jobs/p0~j000001-00000000", ""},
	} {
		if status, body := do(t, tc.method, url+tc.path, tc.body); status != http.StatusBadGateway {
			t.Errorf("%s %s over a member writing a foreign view: HTTP %d %s, want 502", tc.method, tc.path, status, body)
		}
	}

	resp, err := http.Get(url + "/v1/jobs/p0~j000002-00000000")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusServiceUnavailable || string(body) != "upstream warming up\n" ||
		resp.Header.Get("Content-Type") != "text/plain" || resp.Header.Get("Retry-After") != "7" {
		t.Fatalf("refusal relayed as HTTP %d %q (Content-Type %q, Retry-After %q)", resp.StatusCode, body,
			resp.Header.Get("Content-Type"), resp.Header.Get("Retry-After"))
	}
}
