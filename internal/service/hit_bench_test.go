package service

import (
	"context"
	"net/http/httptest"
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
