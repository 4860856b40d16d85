package main

import (
	"fmt"
	"math"
)

// metricDef names one reported metric and its unit. The lists below are
// the benchmark's whole output vocabulary; BENCHMARK.json must name the
// same metrics with the same units (a self-test checks it).
type metricDef struct{ name, unit string }

// simUS marks simulated microseconds: deterministic model output, not a
// wall-clock reading.
const simUS = "us_sim"

// endToEnd is printed by every untraced run, on every workload. A hit is an
// operation answered from memoized state, a compute one that builds it,
// and a call the workload's unit operation (see phase).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"work_per_s", "1/s"},
	{"call_p50_ms", "ms"},
	{"call_tail_ms", "ms"},
	{"hit_p50_ms", "ms"},
	{"hit_tail_ms", "ms"},
	{"compute_p50_ms", "ms"},
	{"compute_tail_ms", "ms"},
	{"ok_frac", "frac"},
	{"heap_peak_mb", "MB"},
	{"paper_te_err_pct", "%"},
	{"opt_tp_us", simUS},
}

// perLayer is printed by every traced run, on every workload; a layer the
// workload does not exercise reads 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"core.build_ms", "ms"},
		{"core.run_ms", "ms"},
		{"core.confirm_ms", "ms"},
	}
	for _, m := range sweepMachines {
		defs = append(defs, metricDef{"sim.replay_ns_per_instr." + m, "ns"}, metricDef{"mem.ns_per_access." + m, "ns"})
	}
	for _, g := range cpuGroups {
		defs = append(defs, metricDef{"cpu." + g, "frac"})
	}
	for _, g := range reqGroups {
		defs = append(defs, metricDef{"cpu.req." + g, "frac"})
	}
	for _, n := range []string{"instr", "imiss", "irepl", "dmiss", "bmiss", "l2miss", "victim_hits"} {
		defs = append(defs, metricDef{"sim." + n, "count"})
	}
	defs = append(defs,
		metricDef{"sim.icpi", "cpi"},
		metricDef{"sim.mcpi", "cpi"},
		metricDef{"sim.wire_us", simUS},
		metricDef{"sim.ctrl_us", simUS},
		metricDef{"sim.process_us", simUS},
		metricDef{"sim.timer_us", simUS},
		metricDef{"opt.examined", "count"},
		metricDef{"opt.rejected_wf", "count"},
		metricDef{"opt.rejected_equiv", "count"},
		metricDef{"opt.scored_frac", "frac"},
		metricDef{"opt.pred_repl", "count"},
		metricDef{"opt.meas_repl", "count"},
		metricDef{"opt.repl_err", "frac"},
		metricDef{"verify.cost_us", "us"},
		metricDef{"verify.program_us", "us"},
		metricDef{"verify.checkclone_us", "us"},
		metricDef{"code.link_us", "us"},
	)
	for _, op := range storageOps {
		defs = append(defs, metricDef{"storage." + op + "_us", "us"}, metricDef{"storage." + op + "_n", "count"})
	}
	defs = append(defs,
		metricDef{"serve.fingerprint_us", "us"},
		metricDef{"serve.doc_kb", "KB"},
		metricDef{"serve.direct_ms", "ms"},
		metricDef{"serve.overhead_ms", "ms"},
		metricDef{"serve.store_hits", "count"},
		metricDef{"serve.store_misses", "count"},
		metricDef{"serve.coalesced", "count"},
		metricDef{"serve.rejected", "count"},
		metricDef{"serve.failed", "count"},
		metricDef{"serve.degraded", "count"},
		metricDef{"span.request_self_ms", "ms"},
		metricDef{"span.request_storage_ms", "ms"},
		metricDef{"go.alloc_bytes_per_work", "B"},
		metricDef{"go.allocs_per_work", "count"},
		metricDef{"go.gc_cycles", "count"},
		metricDef{"go.gc_cpu_frac", "frac"},
		metricDef{"error_frac", "frac"},
		metricDef{"trace_overhead_pct", "%"},
	)
	return defs
}()

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// tailInfo says which percentile a tail metric used and on how many
// samples, so a tail is never read without its basis.
type tailInfo struct {
	Percentile float64 `json:"percentile"`
	Samples    int     `json:"samples"`
	Beyond     int     `json:"beyond"`
}

// endToEndMetrics derives the end-to-end metrics of one untraced phase.
func endToEndMetrics(setupS float64, p *phase) (map[string]float64, map[string]tailInfo) {
	call := summarize(p.call)
	hit, comp := summarize(p.hit), summarize(p.compute)
	vals := map[string]float64{
		"setup_s":          setupS,
		"work_per_s":       p.work / p.elapsed.Seconds(),
		"call_p50_ms":      call.P50,
		"call_tail_ms":     call.Tail,
		"hit_p50_ms":       hit.P50,
		"hit_tail_ms":      hit.Tail,
		"compute_p50_ms":   comp.P50,
		"compute_tail_ms":  comp.Tail,
		"ok_frac":          1 - errorFrac(p.attempted, p.failed),
		"heap_peak_mb":     float64(p.heapPeak) / (1 << 20),
		"paper_te_err_pct": p.paperErrPct,
		"opt_tp_us":        p.optTpUS,
	}
	tails := map[string]tailInfo{
		"call_tail_ms":    {call.TailPct, call.N, call.Beyond},
		"hit_tail_ms":     {hit.TailPct, hit.N, hit.Beyond},
		"compute_tail_ms": {comp.TailPct, comp.N, comp.Beyond},
	}
	return vals, tails
}

// render attaches units to the values of defs. Every run prints every
// metric; one the run's layers did not produce reads 0.
func render(defs []metricDef, vals map[string]float64) (map[string]metric, error) {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v := vals[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.name, v)
		}
		out[d.name] = metric{Value: v, Unit: d.unit}
	}
	return out, nil
}
