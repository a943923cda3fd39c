package bench

import (
	"math"
	"sort"
)

// median returns the middle value of xs (mean of the two middle values
// for an even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartile of xs the way Python's
// statistics.quantiles(xs, n=4) does (the "exclusive" method), which is
// the spread rule the benchmark contract applies. Fewer than two values
// have no spread: both quartiles are the single value.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spreadShare is the interquartile distance of xs as a share of their
// median; 0 when the median is 0 or there are fewer than two values.
func spreadShare(xs []float64) float64 {
	med := median(xs)
	if med == 0 || len(xs) < 2 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return math.Abs((q3 - q1) / med)
}

// percentileLadder lists the percentiles a latency report may name, in
// ascending order, in tenths of a percent.
var percentileLadder = []int{500, 900, 950, 990, 999}

// topPercentile returns the highest percentile of the ladder that still
// has at least ten of the n samples beyond it: a p99 over 48 samples
// would be set by half a sample, so such a report falls back to p50.
func topPercentile(n int) float64 {
	top := percentileLadder[0]
	for _, p := range percentileLadder {
		if n*(1000-p) >= 10*1000 {
			top = p
		}
	}
	return float64(top) / 10
}

// percentile returns the p-th percentile (nearest-rank) of xs; 0 for an
// empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// latencyReport summarises per-operation latencies: the median, and the
// highest percentile the sample count supports, with that count stated.
type latencyReport struct {
	N    int     // sample count
	P50  float64 // median
	TopP float64 // the percentile Top is taken at (topPercentile(N))
	Top  float64
}

func summarizeLatency(xs []float64) latencyReport {
	p := topPercentile(len(xs))
	return latencyReport{N: len(xs), P50: percentile(xs, 50), TopP: p, Top: percentile(xs, p)}
}
