package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0..100) of vals by linear
// interpolation between closest ranks; vals need not be sorted.
func percentile(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(vals []float64) float64 { return percentile(vals, 50) }

// quartiles mirrors Python's statistics.quantiles(vals, n=4) (the
// "exclusive" method), which is what the acceptance check of the benchmark
// contract computes the spread from.
func quartiles(vals []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	at := func(i int) float64 {
		// position i*(n+1)/4, 1-based, clamped to the sample.
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}

// spread is the inter-quartile distance as a share of the median.
func spread(vals []float64) float64 {
	q1, q2, q3 := quartiles(vals)
	if q2 == 0 {
		return 0
	}
	return math.Abs(q3-q1) / math.Abs(q2)
}

func maxOf(vals []float64) float64 {
	var m float64
	for _, v := range vals {
		if v > m {
			m = v
		}
	}
	return m
}

// ratio is a/b with 0 for an empty base.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
