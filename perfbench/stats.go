package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile of sorted by linear interpolation
// between closest ranks; NaN for an empty sample.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// median of an unsorted sample.
func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// p99 of an unsorted sample.
func p99(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantile(s, 0.99)
}

// tail returns the highest percentile of sorted that has at least ten
// samples beyond it: the value, its percentile and the number of samples
// beyond it. It never reports below the median, so a run with fewer than
// twenty samples reports its median with fewer than ten beyond.
func tail(sorted []float64) (value, percentile float64, beyond int) {
	n := len(sorted)
	if n == 0 {
		return math.NaN(), 0, 0
	}
	if i := n - 11; n >= 21 {
		return sorted[i], 100 * float64(i+1) / float64(n), 10
	}
	return quantile(sorted, 0.5), 50, n / 2
}

// tailOf is tail's value for an unsorted sample.
func tailOf(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	t, _, _ := tail(s)
	return t
}

func sum(v []float64) float64 {
	t := 0.0
	for _, x := range v {
		t += x
	}
	return t
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
