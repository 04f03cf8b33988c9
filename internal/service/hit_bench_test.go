package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime/debug"
	"testing"

	"repro/internal/core"
	"repro/internal/link"
)

// hitSpec is the request serve_mix repeats: a one-cell RXL grid whose
// result document is ≈ 1.85 KB.
func hitSpec(seed uint64) JobSpec {
	return JobSpec{
		Kind: KindGrid,
		Seed: seed,
		Grid: &core.Grid{Base: core.Config{Protocol: link.ProtocolRXL, Levels: 1, BER: 1e-6}, N: 2000},
	}
}

// BenchmarkSubmitHitInProcess times one cache-hit submit through the
// in-process client, from spec to decoded JobView, against an empty job
// history and against a full one (jobHistory terminal jobs, as on a
// daemon that has been up for a while).
func BenchmarkSubmitHitInProcess(b *testing.B) {
	benchSubmitHit(b, func(b *testing.B, s *Server) *Client { return NewInProcessClient(s) })
}

// BenchmarkSubmitHitHTTP is BenchmarkSubmitHitInProcess over loopback
// HTTP, the path serve_mix's clients take.
func BenchmarkSubmitHitHTTP(b *testing.B) {
	benchSubmitHit(b, func(b *testing.B, s *Server) *Client {
		ts := httptest.NewServer(s)
		b.Cleanup(ts.Close)
		return NewClient(ts.URL)
	})
}

func benchSubmitHit(b *testing.B, client func(*testing.B, *Server) *Client) {
	for _, c := range []struct {
		name    string
		history int
	}{{"empty", 0}, {"full", jobHistory}} {
		b.Run(c.name, func(b *testing.B) {
			srv, err := New(Config{})
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(srv.Close)
			cl := client(b, srv)
			ctx := context.Background()
			spec := hitSpec(1)
			if _, err := cl.Run(ctx, spec); err != nil {
				b.Fatal(err)
			}
			for i := 0; i < c.history; i++ {
				if _, _, err := srv.Submit(spec); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v, err := cl.Submit(ctx, spec)
				if err != nil || !v.Cached {
					b.Fatalf("hit %d: cached=%v err=%v", i, v.Cached, err)
				}
			}
		})
	}
}

// hitReply is the reply a serve_mix hit reads: hitSpec(1) submitted to a
// daemon that already holds its result.
func hitReply(tb testing.TB) []byte {
	srv, err := New(Config{})
	if err != nil {
		tb.Fatal(err)
	}
	defer srv.Close()
	if _, err := NewInProcessClient(srv).Run(context.Background(), hitSpec(1)); err != nil {
		tb.Fatal(err)
	}
	body, err := json.Marshal(hitSpec(1))
	if err != nil {
		tb.Fatal(err)
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		tb.Fatalf("repeat submit answered %d %s", rec.Code, rec.Body)
	}
	return rec.Body.Bytes()
}

// BenchmarkDecodeJobView decodes the hit reply with DecodeJobView's hand
// reader and with json.Unmarshal, the layer's before and after.
func BenchmarkDecodeJobView(b *testing.B) {
	reply := hitReply(b)
	if _, ok := readJobView(reply); !ok {
		b.Fatalf("the hand reader refuses the hit reply\n%s", reply)
	}
	b.Run("reader", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if v, err := DecodeJobView(reply); err != nil || !v.Cached {
				b.Fatalf("cached=%v err=%v", v.Cached, err)
			}
		}
	})
	b.Run("unmarshal", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var v JobView
			if err := json.Unmarshal(reply, &v); err != nil || !v.Cached {
				b.Fatalf("cached=%v err=%v", v.Cached, err)
			}
		}
	})
}

// BenchmarkDecodeSpec answers serve_mix's hit body — a grid spec with a
// 20-digit seed, as json.Marshal writes it — from the spec memo, and
// with the strict decoder, Normalize and Key, the path a body the memo
// does not hold takes.
func BenchmarkDecodeSpec(b *testing.B) {
	body, err := json.Marshal(hitSpec(hitSeed))
	if err != nil {
		b.Fatal(err)
	}
	if _, _, ok := DecodeSpec(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body))); !ok {
		b.Fatalf("the hit body is refused\n%s", body)
	}
	b.Run("memo", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if e, ok := specs.get(body); !ok || e.norm.Seed != hitSeed {
				b.Fatalf("seed %d ok=%v", e.norm.Seed, ok)
			}
		}
	})
	b.Run("strict", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s, err := decodeStrict(body)
			if err == nil {
				s, err = s.Normalize()
			}
			if err != nil || s.Key() == "" || s.Seed != hitSeed {
				b.Fatalf("seed %d err=%v", s.Seed, err)
			}
		}
	})
}

// hitAllocBudget is what one in-process cache-hit submit may allocate,
// from spec to decoded view: the count measured with go1.24 when the
// spec memo landed (66 with the hand spec reader before it, 79 with the
// strict decoder alone, 87 before DecodeJobView's reader). net/http's
// share of it can move between Go releases.
const hitAllocBudget = 56

// TestSubmitHitAllocations holds one in-process cache hit to
// hitAllocBudget allocations, so a hit path that starts allocating again
// fails here rather than only in a benchmark.
func TestSubmitHitAllocations(t *testing.T) {
	if raceEnabled() {
		t.Skip("the race detector's sync.Pool drops items at random: counts there measure the detector")
	}
	srv, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl := NewInProcessClient(srv)
	ctx := context.Background()
	spec := hitSpec(1)
	if _, err := cl.Run(ctx, spec); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if v, err := cl.Submit(ctx, spec); err != nil || !v.Cached {
			t.Fatalf("cached=%v err=%v", v.Cached, err)
		}
	})
	if allocs > hitAllocBudget {
		t.Fatalf("%v allocations per in-process hit, budget %d", allocs, hitAllocBudget)
	}
}

// raceEnabled reports whether the test binary was built with -race.
func raceEnabled() bool {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}
