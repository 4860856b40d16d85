package main

import (
	"strings"
	"testing"
)

func runs(workload string, nproc int, vals ...float64) []record {
	var out []record
	for i, v := range vals {
		out = append(out, record{
			Workload: workload, Seed: uint64(i + 1),
			Env:     environment{NProc: nproc, GoVersion: "go1.x"},
			Metrics: map[string]metric{"lat_ms": {Value: v, Unit: "ms"}},
		})
	}
	return out
}

var latMetric = []benchMetric{{Name: "lat_ms", Unit: "ms", Better: "lower", Bound: 0.1}}

func verdictOf(t *testing.T, a, b []record) row {
	t.Helper()
	rows, err := compareRuns(a, b, latMetric)
	if err != nil || len(rows) != 1 {
		t.Fatalf("compare: %v (%d rows)", err, len(rows))
	}
	return rows[0]
}

func TestCompareAA(t *testing.T) {
	a := runs("w", 2, 10, 10.2, 9.9, 10.1, 10, 9.8, 10.3, 10, 10.1, 9.9)
	b := runs("w", 2, 10.1, 10, 10, 9.9, 10.2, 10, 10.1, 9.8, 10, 10.2)
	if r := verdictOf(t, a, b); r.Verdict != "unchanged" {
		t.Fatalf("A/A verdict %q", r.Verdict)
	}
}

func TestCompareAB(t *testing.T) {
	a := runs("w", 2, 10, 10.2, 9.9, 10.1, 10, 9.8, 10.3, 10, 10.1, 9.9)
	faster := runs("w", 2, 9, 9.1, 8.9, 9.2, 9, 8.8, 9.1, 9, 9.1, 8.9)
	if r := verdictOf(t, a, faster); r.Verdict != "better" || r.Wins != 10 {
		t.Fatalf("faster: %+v", r)
	}
	slower := runs("w", 2, 11.5, 11.6, 11.4, 11.5, 11.7, 11.5, 11.6, 11.4, 11.5, 11.6)
	if r := verdictOf(t, a, slower); r.Verdict != "worse" {
		t.Fatalf("slower: %+v", r)
	}
	// Slower by less than the bound is not a regression.
	bitSlower := runs("w", 2, 10.5, 10.7, 10.4, 10.6, 10.5, 10.3, 10.8, 10.5, 10.6, 10.4)
	if r := verdictOf(t, a, bitSlower); r.Verdict != "unchanged" {
		t.Fatalf("slower within bound: %+v", r)
	}
	// Spread wider than the bound: unresolved, unless one side dominates.
	noisy := runs("w", 2, 8, 12, 9, 11, 10, 7, 13, 10, 9, 11)
	if r := verdictOf(t, a, noisy); r.Verdict != "unresolved" {
		t.Fatalf("noisy: %+v", r)
	}
	dominant := runs("w", 2, 5, 8, 6, 7, 5.5, 6.5, 7.5, 6, 5, 9)
	if r := verdictOf(t, a, dominant); r.Verdict != "better" {
		t.Fatalf("noisy but every run faster: %+v", r)
	}
	higher := []benchMetric{{Name: "lat_ms", Better: "higher", Bound: 0.05}}
	rows, err := compareRuns(a, faster, higher)
	if err != nil || rows[0].Verdict != "worse" {
		t.Fatalf("direction ignored: %v %+v", err, rows)
	}
}

func TestCompareRefusesDifferentConditions(t *testing.T) {
	a := runs("w", 2, 1, 2, 3)
	cases := map[string][]record{
		"nproc":   runs("w", 4, 1, 2, 3),
		"seeds":   runs("w", 2, 1, 2),
		"missing": runs("x", 2, 1, 2, 3),
	}
	for name, b := range cases {
		if _, err := compareRuns(a, b, latMetric); err == nil {
			t.Errorf("%s: compared runs it should refuse", name)
		}
	}
	b := runs("w", 2, 1, 2, 3)
	b[0].Env.GoVersion = "go0"
	if _, err := compareRuns(a, b, latMetric); err == nil || !strings.Contains(err.Error(), "environment") {
		t.Errorf("go version: %v", err)
	}
	b = runs("w", 2, 1, 2, 3)
	b[2].Seed = 9
	if _, err := compareRuns(a, b, latMetric); err == nil {
		t.Errorf("different seeds compared")
	}
}
