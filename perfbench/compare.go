package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// benchMetric is one end-to-end metric as BENCHMARK.json declares it.
type benchMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchSpec is the part of BENCHMARK.json the comparator and the self-tests
// read.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

func loadBenchSpec(path string) (benchSpec, error) {
	var s benchSpec
	b, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(b, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// row is one workload × metric comparison of run set A (the parent) with
// run set B (the change).
type row struct {
	Workload, Metric string
	A, B             [3]float64 // first quartile, median, third quartile
	Wins, Pairs      int
	Verdict          string
}

// verdict applies the comparison rules to runs paired by seed: a[i] and
// b[i] ran the same inputs. B is "worse" when its median is worse than
// A's by more than bound (a share of A's median), and "better" when it
// wins at least nine pairs in ten (ties count for neither) and its median
// beats A's by more than A's own quartile spread. When either side's
// quartile spread exceeds the bound, the metric is "unresolved" unless
// every run of one side beats every run of the other.
func verdict(a, b []float64, better string, bound float64) (string, int) {
	sign := 1.0
	if better == "lower" {
		sign = -1
	}
	q1a, ma, q3a := quartiles(a)
	q1b, mb, q3b := quartiles(b)
	wins := 0
	for i := range a {
		if sign*(b[i]-a[i]) > 0 {
			wins++
		}
	}
	spread := func(q1, m, q3 float64) float64 {
		if q3 == q1 {
			return 0
		}
		return (q3 - q1) / math.Abs(m)
	}
	if spread(q1a, ma, q3a) > bound || spread(q1b, mb, q3b) > bound {
		switch {
		case dominates(b, a, sign):
			return "better", wins
		case dominates(a, b, sign):
			return "worse", wins
		}
		return "unresolved", wins
	}
	gain := sign * (mb - ma)
	switch {
	case gain < -bound*math.Abs(ma):
		return "worse", wins
	case float64(wins) >= 0.9*float64(len(a)) && gain > q3a-q1a:
		return "better", wins
	}
	return "unchanged", wins
}

// dominates reports whether every value of x beats every value of y.
func dominates(x, y []float64, sign float64) bool {
	for _, xv := range x {
		for _, yv := range y {
			if sign*(xv-yv) <= 0 {
				return false
			}
		}
	}
	return len(x) > 0 && len(y) > 0
}

// compareRuns compares two sets of untraced run records metric by metric.
// It refuses sets recorded under a different CPU count or Go version, or
// on different seeds, since their differences would not be the code's.
func compareRuns(a, b []record, metrics []benchMetric) ([]row, error) {
	all := append(append([]record(nil), a...), b...)
	if len(a) == 0 || len(b) == 0 {
		return nil, fmt.Errorf("both sides need untraced runs")
	}
	for _, r := range all[1:] {
		if r.Env.NProc != all[0].Env.NProc || r.Env.GoVersion != all[0].Env.GoVersion {
			return nil, fmt.Errorf("runs recorded under different environments (nproc %d vs %d, %s vs %s)",
				all[0].Env.NProc, r.Env.NProc, all[0].Env.GoVersion, r.Env.GoVersion)
		}
	}
	byW := func(rs []record) map[string][]record {
		m := map[string][]record{}
		for _, r := range rs {
			m[r.Workload] = append(m[r.Workload], r)
		}
		for _, v := range m {
			sort.Slice(v, func(i, j int) bool { return v[i].Seed < v[j].Seed })
		}
		return m
	}
	wa, wb := byW(a), byW(b)
	for _, w := range sortedKeys(wb) {
		if _, ok := wa[w]; !ok {
			return nil, fmt.Errorf("workload %s only in the second set", w)
		}
	}
	var rows []row
	for _, w := range sortedKeys(wa) {
		ra, rb := wa[w], wb[w]
		if len(ra) != len(rb) {
			return nil, fmt.Errorf("%s: %d runs against %d", w, len(ra), len(rb))
		}
		for i := range ra {
			if ra[i].Seed != rb[i].Seed {
				return nil, fmt.Errorf("%s: runs on different seeds (%d vs %d)", w, ra[i].Seed, rb[i].Seed)
			}
		}
		for _, m := range metrics {
			va, vb := make([]float64, len(ra)), make([]float64, len(rb))
			for i := range ra {
				va[i], vb[i] = ra[i].Metrics[m.Name].Value, rb[i].Metrics[m.Name].Value
			}
			r := row{Workload: w, Metric: m.Name, Pairs: len(va)}
			r.A[0], r.A[1], r.A[2] = quartiles(va)
			r.B[0], r.B[1], r.B[2] = quartiles(vb)
			r.Verdict, r.Wins = verdict(va, vb, m.Better, m.Bound)
			rows = append(rows, r)
		}
	}
	return rows, nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// loadRecords reads every untraced run record in dir.
func loadRecords(dir string) ([]record, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	var out []record
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r record
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if !r.Trace {
			out = append(out, r)
		}
	}
	return out, nil
}

// compareMain is `perfbench compare [-bench BENCHMARK.json] <dir-a> <dir-b>`:
// A is the parent's runs, B the change's. It exits 0 when it could
// compare, 2 when it refused.
func compareMain(args []string, w io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	bench := fs.String("bench", "BENCHMARK.json", "benchmark description with each metric's direction and bound")
	if err := fs.Parse(args); err != nil || fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare [-bench BENCHMARK.json] <dir-a> <dir-b>")
		return 2
	}
	spec, err := loadBenchSpec(*bench)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", err)
		return 2
	}
	a, err := loadRecords(fs.Arg(0))
	if err == nil {
		var b []record
		if b, err = loadRecords(fs.Arg(1)); err == nil {
			var rows []row
			if rows, err = compareRuns(a, b, spec.EndToEnd); err == nil {
				printRows(w, rows)
				return 0
			}
		}
	}
	fmt.Fprintln(os.Stderr, "perfbench compare: refusing:", err)
	return 2
}

func printRows(w io.Writer, rows []row) {
	fmt.Fprintf(w, "%-9s %-17s %-32s %-32s %7s  %s\n", "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "B wins", "verdict")
	for _, r := range rows {
		q := func(x [3]float64) string { return fmt.Sprintf("%.4g [%.4g, %.4g]", x[1], x[0], x[2]) }
		fmt.Fprintf(w, "%-9s %-17s %-32s %-32s %3d/%-3d  %s\n", r.Workload, r.Metric, q(r.A), q(r.B), r.Wins, r.Pairs, r.Verdict)
	}
	counts := map[string]int{}
	for _, r := range rows {
		counts[r.Verdict]++
	}
	var parts []string
	for _, v := range []string{"better", "worse", "unchanged", "unresolved"} {
		parts = append(parts, fmt.Sprintf("%d %s", counts[v], v))
	}
	fmt.Fprintln(w, strings.Join(parts, ", "))
}
