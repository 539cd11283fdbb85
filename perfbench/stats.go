package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// xs, or 0 for an empty slice. xs need not be sorted.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := nearestRank(len(s), p)
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// nearestRank is the 1-based rank of the p-th percentile of n samples,
// ceil(p/100 * n), computed so that 99.9% of 10000 is exactly 9990.
func nearestRank(n int, p float64) int {
	return int(math.Ceil(p*float64(n)/100 - 1e-9))
}

// beyond counts the samples strictly above the nearest-rank p-th
// percentile's position: the ones a tail estimate at p rests on.
func beyond(n int, p float64) int {
	rank := nearestRank(n, p)
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		return 0
	}
	return n - rank
}

// tailPercentiles are the candidate tail percentiles, highest first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// tailPercentile picks the highest candidate percentile that still has
// at least 10 samples beyond it, so a tail figure never rests on a
// handful of outliers. ok is false when even the median has fewer.
func tailPercentile(n int) (p float64, ok bool) {
	for _, c := range tailPercentiles {
		if beyond(n, c) >= 10 {
			return c, true
		}
	}
	return 0, false
}

// ratio is a share that keeps its base, so a reader can tell 0/0 from
// 0/500 and knows what the denominator counted.
type ratio struct {
	num, base float64
	baseName  string
}

// value is num/base, or 0 when the base is empty.
func (r ratio) value() float64 {
	if r.base == 0 {
		return 0
	}
	return r.num / r.base
}

func (r ratio) String() string {
	if r.base == 0 {
		return fmt.Sprintf("0 (base %s = 0)", r.baseName)
	}
	return fmt.Sprintf("%.4f (%g of %g %s)", r.value(), r.num, r.base, r.baseName)
}

// ms converts a duration to float milliseconds with full precision.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// median returns the middle value (mean of the two middle values for an
// even count), or 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
