package main

import (
	"fmt"
	"math"
	"sort"
)

// tailLadder lists the percentiles a tail metric may report, highest
// first. The tail is the highest of them with at least minBeyond samples
// strictly beyond it, so a tail is never an extrapolation from a handful of
// points. It stops at p90: on a shared 2-vCPU host the p99 of the same
// code spread 19–61% over five runs, because the slowest 1% of operations
// are those the host interrupted, while p90 spread 5–13%. A run's record
// keeps p95, p99 and p99.9 beside it (see quantileTable).
var tailLadder = []float64{90, 50}

// minBeyond is how many samples must lie beyond a percentile for it to
// count as a tail.
const minBeyond = 10

// summary describes one latency population.
type summary struct {
	N       int     `json:"n"`
	P50     float64 `json:"p50"`
	Tail    float64 `json:"tail"`
	TailPct float64 `json:"tail_pct"`
	Beyond  int     `json:"beyond"`
}

// rank returns the 1-based nearest rank of percentile p in n samples.
func rank(p float64, n int) int {
	// The tolerance keeps float rounding (99.9/100 is not exact) from
	// pushing an exact rank up by one.
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// tailPercentile picks the reported tail percentile for n samples and
// returns it with the number of samples beyond its rank. When no ladder
// entry has minBeyond samples beyond it, the median is used, and the
// reported beyond count shows that it is not a true tail.
func tailPercentile(n int) (p float64, beyond int) {
	for _, p := range tailLadder {
		if b := n - rank(p, n); b >= minBeyond {
			return p, b
		}
	}
	return 50, n - rank(50, n)
}

// summarize computes the median and the tail of xs (any order).
func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	p, beyond := tailPercentile(len(s))
	return summary{
		N:       len(s),
		P50:     s[rank(50, len(s))-1],
		Tail:    s[rank(p, len(s))-1],
		TailPct: p,
		Beyond:  beyond,
	}
}

// median returns the median of xs (midpoint of the two middle values for
// an even count), or 0 for no values.
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

// quartiles returns the first quartile, median and third quartile of xs
// with the same method as Python's statistics.quantiles(xs, n=4) (the
// default "exclusive" method), so the spreads this benchmark reports match
// the ones computed from its result lines.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	// Python's exclusive method in its own integer arithmetic, including
	// its clamping (which extrapolates slightly for very small n).
	q := func(i int) float64 {
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
	return q(1), q(2), q(3)
}

// geomean returns the geometric mean of positive xs.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// errorFrac is failed operations over attempted ones; a run that attempted
// nothing has failed entirely.
func errorFrac(attempted, failed int) float64 {
	if attempted <= 0 {
		return 1
	}
	return float64(failed) / float64(attempted)
}

// quantileTable gives the nearest-rank percentiles of xs that a run's
// record keeps, with the sample count.
func quantileTable(xs []float64) map[string]float64 {
	out := map[string]float64{"n": float64(len(xs))}
	if len(xs) == 0 {
		return out
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	for _, p := range []float64{50, 75, 90, 95, 99, 99.9} {
		out[fmt.Sprintf("p%g", p)] = s[rank(p, len(s))-1]
	}
	return out
}
