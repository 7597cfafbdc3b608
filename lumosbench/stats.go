package main

import (
	"math"
	"sort"
	"time"
)

// median returns the median of xs (0 for none). xs is not modified.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-th quantile of xs by linear interpolation between
// order statistics (0 for none). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ms and us convert a duration to fractional milliseconds / microseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// tailPercentiles are the tail percentiles the benchmark may report, from
// the highest down.
var tailPercentiles = []float64{99.99, 99.9, 99, 90, 50}

// tailPercentile picks the highest percentile that has at least ten of n
// samples beyond it, so a reported tail always rests on several samples.
// It returns 0 when even the median has fewer than ten samples above it.
func tailPercentile(n int) float64 {
	for _, p := range tailPercentiles {
		if float64(n)*(100-p)/100 >= 10-1e-9 { // tolerate 100-p's rounding
			return p
		}
	}
	return 0
}

// percentile returns the nearest-rank p-th percentile of sorted values.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// rateSegments is how many contiguous segments a run's operations are cut
// into for segmentRate.
const rateSegments = 4

// segmentRates cuts a run's operations into k contiguous segments of equal
// count (the last takes any remainder) and returns each segment's rate, in
// operations per second. done[i] is when operation i completed; start is
// when the first began. Their median is the run's rate: a slow spell on
// the host moves one segment's rate, not the reported one.
func segmentRates(start time.Time, done []time.Time, k int) []float64 {
	n := len(done)
	if n == 0 {
		return nil
	}
	k = min(k, n)
	var rates []float64
	from := start
	for s := 0; s < k; s++ {
		lo, hi := s*(n/k), (s+1)*(n/k)
		if s == k-1 {
			hi = n
		}
		rates = append(rates, float64(hi-lo)/done[hi-1].Sub(from).Seconds())
		from = done[hi-1]
	}
	return rates
}
