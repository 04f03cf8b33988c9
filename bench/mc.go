package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/reliability"
	"repro/internal/reliability/rarevent"
	"repro/internal/runner"
)

type est = rarevent.Estimate

// mcWorkload is the deep-tail estimation users run through cmd/sweep
// -rare: reliability.RareSweep on the sharded runner. One operation is
// one sweep; every operation of a run is the same computation (the pool
// seed derives from -seed), so its result must repeat bit for bit.
type mcWorkload struct {
	e      *env
	c      *checks
	pool   runner.Pool
	trials int
	// want is the warm-up sweep: what every later sweep, the unrolled
	// traced one and the one-worker one must reproduce.
	want      string
	points    []reliability.RarePoint
	oneWorker time.Duration // wall of the sweep at Workers 1
}

var mcBERs = []float64{1e-8, 1e-10, 1e-12}

func newMC(e *env, c *checks) *mcWorkload {
	return &mcWorkload{
		e: e, c: c,
		pool: runner.Pool{Workers: runtime.GOMAXPROCS(0), BaseSeed: derive(e.seed, "mc-pool", 0)},
		// A tenth of ISSUE 11's 400 000, so a sweep takes ~0.45 s.
		trials: e.scaled(40_000, 256),
	}
}

func (w *mcWorkload) sweep(pool runner.Pool) ([]reliability.RarePoint, error) {
	return reliability.RareSweep(context.Background(), pool, mcBERs, 0, 0, w.trials, reliability.DefaultShards)
}

func (w *mcWorkload) setup() error {
	pts, err := w.sweep(w.pool)
	if err != nil {
		return err
	}
	w.points, w.want = pts, fmt.Sprintf("%+v", pts)
	for _, p := range pts {
		w.c.check(p.FER.Sigma(p.FER.Analytic) <= 4, "mc_rare BER %g: FER %g is %.1f sigma from Eq. 1 %g",
			p.BER, p.FER.Value, p.FER.Sigma(p.FER.Analytic), p.FER.Analytic)
	}
	return nil
}

func (w *mcWorkload) op(i int, rec *recorder) (opStat, error) {
	var st opStat
	var pts []reliability.RarePoint
	var err error
	t0 := time.Now()
	if rec == nil {
		pts, err = w.sweep(w.pool)
	} else {
		pts, err = w.sweepTraced(rec, &st)
	}
	st.dur = time.Since(t0)
	if err != nil {
		return st, err
	}
	w.c.check(fmt.Sprintf("%+v", pts) == w.want, "mc_rare sweep %d (traced=%v) differs from the warm-up sweep", i, rec != nil)
	st.units = trialsSpent(pts)
	return st, nil
}

// sweepTraced is RareSweep unrolled: the same three estimators per BER on
// the same derived pool seeds, with a span around each.
func (w *mcWorkload) sweepTraced(rec *recorder, st *opStat) ([]reliability.RarePoint, error) {
	ctx := context.Background()
	root := rec.start(0, "reliability.rare_sweep")
	defer rec.end(root)
	var sum [3]float64
	out := make([]reliability.RarePoint, 0, len(mcBERs))
	for i, ber := range mcBERs {
		pt := reliability.RarePoint{BER: ber}
		for q, call := range []struct {
			name string
			fn   func(context.Context, runner.Pool, float64, float64, float64, int, int) (est, error)
			dst  *est
		}{
			{"reliability.rare_fer", reliability.MeasureFERRare, &pt.FER},
			{"reliability.rare_uc", reliability.MeasureUncorrectableRare, &pt.FERUC},
			{"reliability.rare_ud", reliability.MeasureUndetectedRare, &pt.Undetected},
		} {
			p := w.pool
			p.BaseSeed = runner.ShardSeed(w.pool.BaseSeed, 3*i+q+1)
			id := rec.start(root, call.name)
			e, err := call.fn(ctx, p, ber, 0, 0, w.trials, reliability.DefaultShards)
			sum[q] += rec.end(id).Seconds()
			if err != nil {
				return nil, err
			}
			*call.dst = e
		}
		out = append(out, pt)
	}
	st.sample("reliability.rare_fer", sum[0])
	st.sample("reliability.rare_uc", sum[1])
	st.sample("reliability.rare_ud", sum[2])
	return out, nil
}

func trialsSpent(pts []reliability.RarePoint) float64 {
	n := 0
	for _, p := range pts {
		n += p.FER.Trials + p.FERUC.Trials + p.Undetected.Trials
	}
	return float64(n)
}

func (w *mcWorkload) latenciesMS(ops []opStat) []float64 { return durationsMS(ops) }

// verify checks the runner's core invariant on this workload: one worker
// computes the estimates of GOMAXPROCS workers, bit for bit.
func (w *mcWorkload) verify() error {
	one := w.pool
	one.Workers = 1
	t0 := time.Now()
	pts, err := w.sweep(one)
	w.oneWorker = time.Since(t0)
	if err != nil {
		return err
	}
	w.c.check(fmt.Sprintf("%+v", pts) == w.want, "mc_rare: Workers 1 and Workers %d estimates differ", w.pool.Workers)
	return nil
}

func (w *mcWorkload) close() {}

func (w *mcWorkload) layer(untraced, traced []opStat, _ map[string]float64) map[string]float64 {
	relErr := 0.0
	for _, p := range w.points {
		relErr = math.Max(relErr, math.Abs(p.FER.Value-p.FER.Analytic)/p.FER.Analytic)
	}
	wall := median(w.latenciesMS(untraced)) / 1e3
	return map[string]float64{
		"trials_per_s":             median(throughputs(untraced)),
		"est_rel_err":              relErr,
		"reliability.rare_fer_s":   median(pooled(traced, "reliability.rare_fer")),
		"reliability.rare_uc_s":    median(pooled(traced, "reliability.rare_uc")),
		"reliability.rare_ud_s":    median(pooled(traced, "reliability.rare_ud")),
		"reliability.trials_spent": trialsSpent(w.points),
		"runner.speedup_w":         w.oneWorker.Seconds() / wall,
	}
}
