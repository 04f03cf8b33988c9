package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/crc"
	"repro/internal/fleet"
	"repro/internal/flit"
	"repro/internal/link"
	"repro/internal/obs"
	"repro/internal/phy"
	"repro/internal/reliability"
	"repro/internal/runner"
	"repro/internal/service"
	"repro/internal/sim"
)

// probeTarget is how long one probe sample runs; smoke runs shrink it
// with -scale.
var probeTarget = 10 * time.Millisecond

// A probe is a tight loop over one layer's public function. probe sizes
// the loop to probeTarget, takes five samples and returns the median cost
// of one call in nanoseconds. fn(n) must make n calls.
func probe(fn func(n int)) float64 {
	target := probeTarget
	n := 1
	for {
		t0 := time.Now()
		fn(n)
		if d := time.Since(t0); d >= target/4 || n >= 1<<24 {
			n = max(1, int(float64(n)*float64(target)/float64(max(d, 1))))
			break
		}
		n *= 4
	}
	var samples []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		fn(n)
		samples = append(samples, float64(time.Since(t0).Nanoseconds())/float64(n))
	}
	return median(samples)
}

var sink uint64 // defeats dead-code elimination in the kernel probes

// runProbes measures every layer probe. They do not depend on the
// workload, so every traced run reports them.
func runProbes(e *env) (map[string]float64, error) {
	probeTarget = time.Duration(float64(10*time.Millisecond) * min(e.scale, 1))
	m := map[string]float64{}
	kernelProbes(m)
	simulatorProbes(m)
	m["reliability.mc_sched_mflits_s"] = 1e3 / probe(func(n int) {
		sink += uint64(reliability.MeasureFERSchedule(1e-6, n, 1).Erroneous)
	})
	m["reliability.mc_path_mflits_s"] = 1e3 / probe(func(n int) {
		sink += uint64(reliability.MeasureFERPathSchedule(1e-6, 7, n, 1).Erroneous)
	})
	const shards = 64
	m["runner.shard_overhead_us"] = probe(func(n int) {
		for i := 0; i < n; i++ {
			_, _ = runner.Map(context.Background(), runner.Pool{Workers: runtime.GOMAXPROCS(0)}, shards,
				func(context.Context, runner.Shard) (struct{}, error) { return struct{}{}, nil })
		}
	}) / shards / 1e3
	if err := servingProbes(e, m); err != nil {
		return nil, err
	}
	return m, nil
}

// kernelProbes times the coding kernels on one flit.
func kernelProbes(m map[string]float64) {
	buf := make([]byte, 242) // header + payload: the CRC input of a flit
	phy.NewRNG(1).Fill(buf)
	m["crc.isn_seal_ns"] = probe(func(n int) {
		for i := 0; i < n; i++ {
			sink ^= crc.ChecksumISN(uint16(i)&crc.SeqMask, buf)
		}
	})

	fec := flit.NewFEC()
	data := make([]byte, fec.DataLen())
	parity := make([]byte, fec.ParityLen())
	phy.NewRNG(2).Fill(data)
	m["rs.encode_ns"] = probe(func(n int) {
		for i := 0; i < n; i++ {
			fec.Encode(data, parity)
		}
	})
	m["rs.verify_clean_ns"] = probe(func(n int) {
		for i := 0; i < n; i++ {
			if !fec.Verify(data, parity) {
				panic("bench: clean codeword failed verification")
			}
		}
	})
	dirty := make([]byte, len(data))
	m["rs.decode_1err_ns"] = probe(func(n int) {
		for i := 0; i < n; i++ {
			copy(dirty, data)
			dirty[i%len(dirty)] ^= 0x5a
			fec.Decode(dirty, parity)
		}
	})

	var f flit.Flit
	phy.NewRNG(9).Fill(f.Payload())
	m["flit.seal_rxl_ns"] = probe(func(n int) {
		for i := 0; i < n; i++ {
			f.SealRXL(uint16(i)&crc.SeqMask, fec)
		}
	})
	f.SealRXL(7, fec)
	m["flit.decode_check_ns"] = probe(func(n int) {
		for i := 0; i < n; i++ {
			g := f
			g.DecodeFEC(fec)
			if !g.CheckCRCISN(7) {
				panic("bench: sealed flit failed its ISN check")
			}
		}
	})
	m["flit.materialize_ns"] = probe(func(n int) {
		for i := 0; i < n; i++ {
			f.DeferSealRXL(uint16(i) & crc.SeqMask)
			f.Materialize(fec)
		}
	})

	sched := phy.NewSharedSchedule(1e-6, 0.4, phy.NewRNG(3), flit.Bits)
	m["phy.grant_ns"] = probe(func(n int) {
		for i := 0; i < n; i++ {
			if sched.GrantSpan(7, 1) == 0 {
				for h := 0; h < 7; h++ {
					sched.Traverse()
				}
			}
		}
	})
}

// simulatorProbes times the engine and one flit through each fabric tier.
func simulatorProbes(m map[string]float64) {
	engine := func(outOfOrderEvery int) float64 {
		return probe(func(n int) {
			eng := sim.NewEngine()
			count := 0
			noop := func() {}
			var pump func(interface{})
			pump = func(interface{}) {
				count++
				eng.ScheduleArg(2*sim.Nanosecond, pump, nil)
				if outOfOrderEvery > 0 && count%outOfOrderEvery == 0 {
					// Deepen the sorted lane, then push beneath it:
					// genuine heap-lane traffic, as retry timers cause.
					for j := sim.Time(0); j < 12; j++ {
						eng.Schedule((4+2*j)*sim.Nanosecond, noop)
					}
					eng.At(eng.Now()+sim.Nanosecond, noop)
				}
			}
			eng.ScheduleArg(0, pump, nil)
			eng.AdvanceTo(2 * sim.Nanosecond * sim.Time(n))
		})
	}
	m["sim.event_monotone_ns"] = engine(0)
	m["sim.event_mixed_ns"] = engine(64)

	payload := make([]byte, 64)
	// drive pushes n payloads through tx in line-rate bursts.
	drive := func(n int, tx *link.Peer, run func()) {
		for i := 0; i < n; i++ {
			tx.Submit(payload)
			if tx.Queued() > 256 {
				run()
			}
		}
		run()
	}
	direct := core.MustNewFabric(core.Config{Protocol: link.ProtocolRXL, BER: 1e-6, BurstProb: 0.4, Seed: 11})
	direct.B().Deliver = func([]byte) {}
	m["link.direct_flit_ns"] = probe(func(n int) { drive(n, direct.A(), direct.Run) })
	// One flow across the diagonal of a 4x4 mesh (7 wire crossings), by
	// traversal tier.
	diagonal := func(noExpress, noFast bool) float64 {
		fab := core.MustNewMeshFabric(core.Config{Protocol: link.ProtocolRXL, BER: 1e-6, BurstProb: 0.4,
			Seed: 11, NoExpress: noExpress, NoFastPath: noFast}, 4, 4)
		src, dst := fab.Node(0, 0), fab.Node(3, 3)
		dst.PeerTo(src.ID).Deliver = func([]byte) {}
		tx := src.PeerTo(dst.ID)
		return probe(func(n int) { drive(n, tx, fab.Run) })
	}
	m["switchfab.express_flit_ns"] = diagonal(false, false)
	m["switchfab.perhop_flit_ns"] = diagonal(true, false)
	m["switchfab.bytelevel_flit_ns"] = diagonal(true, true)
}

// servingProbes times the serving layers: pure functions first, then one
// cached job through an in-process daemon, a loopback daemon and a fleet
// front, single client.
func servingProbes(e *env, m map[string]float64) error {
	spec := gridSpec(derive(e.seed, "probe", 0), e.scaled(2000, 20))
	var key string
	m["service.normalize_key_us"] = probe(func(n int) {
		for i := 0; i < n; i++ {
			norm, err := spec.Normalize()
			if err != nil {
				panic(err)
			}
			key = norm.Key()
		}
	}) / 1e3
	body, err := libraryBytes(spec)
	if err != nil {
		return err
	}
	cache, err := service.NewCache(0, "")
	if err != nil {
		return err
	}
	cache.Put(key, body)
	m["service.cache_get_ns"] = probe(func(n int) {
		for i := 0; i < n; i++ {
			if _, ok := cache.Get(key); !ok {
				panic("bench: cache lost its entry")
			}
		}
	})
	m["service.cache_put_us"] = probe(func(n int) {
		for i := 0; i < n; i++ {
			cache.Put(fmt.Sprintf("%s-%d", key, i%1024), body) // past capacity: every put evicts
		}
	}) / 1e3
	ring, err := fleet.NewRing([]string{"http://a", "http://b", "http://c"}, 0)
	if err != nil {
		return err
	}
	m["fleet.ring_owner_ns"] = probe(func(n int) {
		for i := 0; i < n; i++ {
			sink += uint64(len(ring.Owner(key)))
		}
	})
	hist := obs.NewRegistry().Histogram("bench_probe_seconds", "probe", nil)
	m["obs.hist_observe_ns"] = probe(func(n int) {
		for i := 0; i < n; i++ {
			hist.Observe(float64(i%1000) * 1e-4)
		}
	})

	// hitUS primes the probe job through cl, then times repeats of it.
	ctx := context.Background()
	var failed error
	hitUS := func(cl *service.Client) (us float64, jobID string) {
		v, err := runJob(ctx, cl, spec)
		if err != nil {
			failed = err
			return 0, ""
		}
		return probe(func(n int) {
			for i := 0; i < n; i++ {
				if _, err := runJob(ctx, cl, spec); err != nil {
					failed = err
				}
			}
		}) / 1e3, v.ID
	}
	daemon, err := bootStack(false, nil)
	if err != nil {
		return err
	}
	defer daemon.close()
	inproc, _ := hitUS(service.NewInProcessClient(daemon.servers[0]))
	cl := service.NewClient(daemon.url)
	overHTTP, jobID := hitUS(cl)
	m["service.inproc_hit_us"] = inproc
	m["service.http_hit_us"] = overHTTP
	m["service.http_share"] = (overHTTP - inproc) / overHTTP
	m["obs.trace_fetch_us"] = probe(func(n int) {
		for i := 0; i < n; i++ {
			if _, err := cl.JobTrace(ctx, jobID); err != nil {
				failed = err
			}
		}
	}) / 1e3
	m["obs.metrics_render_us"] = probe(func(n int) {
		for i := 0; i < n; i++ {
			resp, err := http.Get(daemon.url + "/metrics")
			if err != nil {
				failed = err
				return
			}
			_, _ = io.Copy(io.Discard, resp.Body) // only the time to render and read matters
			resp.Body.Close()
		}
	}) / 1e3

	fl, err := bootStack(true, nil)
	if err != nil {
		return err
	}
	defer fl.close()
	viaFront, _ := hitUS(service.NewClient(fl.url))
	m["fleet.front_overhead_p50_us"] = viaFront - overHTTP
	return failed
}
