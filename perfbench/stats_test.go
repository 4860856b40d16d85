package main

import (
	"math"
	"testing"
)

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	cases := []struct {
		n      int
		p      float64
		beyond int
	}{
		{100, 90, 10}, // rank 90: exactly ten beyond, so p90 qualifies
		{99, 50, 49},  // rank 90 leaves nine beyond p90, so the median
		{50000, 90, 5000},
		{20, 50, 10},
		{12, 50, 6}, // too few for any tail: the median, flagged by its count
		{1, 50, 0},
	}
	for _, c := range cases {
		p, b := tailPercentile(c.n)
		if p != c.p || b != c.beyond {
			t.Errorf("n=%d: got p%g with %d beyond, want p%g with %d", c.n, p, b, c.p, c.beyond)
		}
	}
}

func TestSummarizeUsesNearestRank(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 1..1000, reversed
	}
	s := summarize(xs)
	if s.N != 1000 || s.P50 != 500 || s.TailPct != 90 || s.Tail != 900 || s.Beyond != 100 {
		t.Fatalf("summary %+v", s)
	}
	if got := summarize(nil); got != (summary{}) {
		t.Fatalf("empty summary %+v", got)
	}
}

// The reference values are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{10, 20, 30, 40}, 12.5, 25, 37.5},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q2-c.q2) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("%v: got %g %g %g, want %g %g %g", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestErrorFracCounting(t *testing.T) {
	var p phase
	p.record(true, true, 0, true)
	p.record(false, true, 0, false)
	p.record(true, false, 0, true)
	p.record(false, true, 0, true)
	if p.attempted != 4 || p.failed != 1 {
		t.Fatalf("attempted %d failed %d", p.attempted, p.failed)
	}
	if len(p.hit) != 2 || len(p.compute) != 2 || len(p.call) != 3 {
		t.Fatalf("classes hit %d compute %d call %d", len(p.hit), len(p.compute), len(p.call))
	}
	if got := errorFrac(p.attempted, p.failed); got != 0.25 {
		t.Fatalf("error frac %g", got)
	}
	if got := errorFrac(0, 0); got != 1 {
		t.Fatalf("a run that attempted nothing must count as failed, got %g", got)
	}
	vals, _ := endToEndMetrics(1, &phase{attempted: 8, failed: 2, elapsed: 1, call: []float64{1}})
	if vals["ok_frac"] != 0.75 {
		t.Fatalf("ok_frac %g", vals["ok_frac"])
	}
}
