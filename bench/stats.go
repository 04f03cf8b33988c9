package main

import (
	"math"
	"sort"
)

// percentile returns the q-quantile (0..1) of vs by linear interpolation
// between order statistics; 0 for an empty sample.
func percentile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(vs []float64) float64 { return percentile(vs, 0.5) }

// spread is the distance between the quartiles as a share of the median.
func spread(vs []float64) float64 {
	m := median(vs)
	if m == 0 {
		return 0
	}
	return math.Abs((percentile(vs, 0.75) - percentile(vs, 0.25)) / m)
}
