package main

import (
	"math"
	"sort"
)

// Every random choice the benchmark makes — flow-set seeds, hot-set
// configurations, zipf draws, unique-miss seeds, pool base seeds —
// comes from -seed through this one splitmix64, never from the clock or
// math/rand's global state, so a seed names one exact input set.

// rng is a splitmix64 stream.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

// float returns a uniform draw in [0,1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// derive returns the index-th value of the named stream of seed:
// independent inputs (cells, hot keys, misses) never share draws.
func derive(seed uint64, stream string, index int) uint64 {
	r := rng{s: seed}
	for _, c := range []byte(stream) {
		r.s ^= uint64(c)
		r.next()
	}
	r.s ^= uint64(index) * 0xD6E8FEB86659FD93
	if v := r.next(); v != 0 {
		return v
	}
	return 1 // 0 means "derive for me" to the grid runners
}

// zipf draws ranks in [0,n) with P(k) ∝ 1/(k+1)^s by inverting a
// precomputed CDF.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) zipf {
	cdf := make([]float64, n)
	sum := 0.0
	for k := range cdf {
		sum += 1 / math.Pow(float64(k+1), s)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	return zipf{cdf}
}

func (z zipf) draw(r *rng) int {
	return min(sort.SearchFloat64s(z.cdf, r.float()), len(z.cdf)-1)
}
