package main

import (
	"fmt"
	"math"
	"sort"
)

// minTail is the number of samples that must lie beyond a reported
// percentile: a percentile with fewer samples above it is the largest
// few values, not a property of the distribution.
const minTail = 10

// median returns the median of xs (the mean of the middle pair for even
// lengths). xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// percentile returns the nearest-rank q-quantile of xs (0 < q < 1). It
// refuses when fewer than minTail samples lie beyond that rank.
func percentile(xs []float64, q float64) (float64, error) {
	if q <= 0 || q >= 1 {
		return 0, fmt.Errorf("percentile %v outside (0,1)", q)
	}
	rank := int(math.Ceil(q * float64(len(xs)))) // 1-based nearest rank
	if beyond := len(xs) - rank; rank < 1 || beyond < minTail {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d",
			100*q, len(xs), max(beyond, 0), minTail)
	}
	return sorted(xs)[rank-1], nil
}

// windows splits xs into consecutive windows of size samples, the last
// one taking the remainder; fewer than size samples make one window.
func windows(xs []float64, size int) [][]float64 {
	n := max(len(xs)/size, 1)
	out := make([][]float64, n)
	for i := range out {
		lo, hi := i*size, (i+1)*size
		if i == n-1 {
			hi = len(xs)
		}
		out[i] = xs[lo:hi]
	}
	return out
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
