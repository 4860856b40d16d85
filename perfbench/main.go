// Command perfbench is the repository's benchmark of record. One run drives
// one workload for a fixed time, checks every output, and prints its
// metrics by name with their units; the last line of standard output is
// the result as one JSON object.
//
//	python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0
//	python3 perfbench/run.py compare <dir-a> <dir-b>
//	python3 perfbench/run.py record-ref
//
// run.py builds it from source and runs it from the checkout root. See
// README.md for the workloads, metrics and how to read them.
package main

import (
	"bytes"
	"embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/storage"
)

// The reference tables pin this benchmark's checked outputs; record-ref
// regenerates them.
//
//go:embed ref/*.json
var refFS embed.FS

func loadRef[T any](name string) (T, error) {
	var v T
	b, err := refFS.ReadFile("ref/" + name)
	if err != nil {
		return v, err
	}
	if err := json.Unmarshal(b, &v); err != nil {
		return v, fmt.Errorf("reference %s: %w", name, err)
	}
	return v, nil
}

// setupReps is how many times a run sets its workload up from cold;
// setup_s is the median, each set-up divided by the mean of the host clock
// readings on either side of it.
const setupReps = 15

// options is one run's command line.
type options struct {
	workload string
	seed     uint64
	dur      time.Duration
	trace    bool
	out      string
}

// environment identifies where a result was recorded; the comparator
// refuses to compare results from different ones.
type environment struct {
	NProc       int    `json:"nproc"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	GoVersion   string `json:"go_version"`
	CPUModel    string `json:"cpu_model"`
	GitDescribe string `json:"git_describe"`
}

// record is one run's full result, written under the output directory.
type record struct {
	Workload  string              `json:"workload"`
	Seed      uint64              `json:"seed"`
	Trace     bool                `json:"trace"`
	Seconds   float64             `json:"seconds"`
	Env       environment         `json:"env"`
	Correct   bool                `json:"correct"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Metrics   map[string]metric   `json:"metrics"`
	Tails     map[string]tailInfo `json:"tails,omitempty"`
	// Quantiles describes each latency class more fully than its median
	// and tail, in reference-host milliseconds.
	Quantiles map[string]map[string]float64 `json:"latency_quantiles,omitempty"`
	// SetupS is each set-up's wall-clock time.
	SetupS []float64 `json:"setup_runs_s"`
	// Slowness is every host clock reading of the run, in order, and
	// HostSlowness their median. Each set-up and each slice of the timed
	// phase was divided by the mean of the readings on either side of it.
	Slowness     []float64   `json:"host_slowness_readings"`
	HostSlowness float64     `json:"host_slowness"`
	SpanSelf     []nameTotal `json:"span_self_ms,omitempty"`
	// ModelErrPct is the model's error against the paper's Te, printed
	// beside every simulated number.
	ModelErrPct float64 `json:"model_err_pct"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

var workloadNames = []string{"sweep", "optimize", "serve"}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "compare":
			os.Exit(compareMain(os.Args[2:], os.Stdout))
		case "record-ref":
			if err := recordRef(os.Args[2:]); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench:", err)
				os.Exit(1)
			}
			return
		}
	}
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	rec, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	report(os.Stdout, rec)
	if !rec.Correct {
		os.Exit(1)
	}
}

func parseFlags(args []string) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	w := fs.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := fs.Uint64("seed", 1, "input seed")
	secs := fs.Int("seconds", 20, "measured seconds")
	tr := fs.Int("trace", 0, "1 for the traced run that reports per-layer metrics")
	out := fs.String("out", filepath.Join(".bench_build", "perfbench"), "directory for stores, spans, profiles and result records")
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}
	if *secs < 1 || (*tr != 0 && *tr != 1) {
		return options{}, fmt.Errorf("want --seconds >= 1 and --trace 0 or 1")
	}
	return options{workload: *w, seed: *seed, dur: time.Duration(*secs) * time.Second, trace: *tr == 1, out: *out}, nil
}

// newWorkload builds the named workload with its inputs from seed.
func newWorkload(name string, seed uint64, dir string, fs *timingFS) (workload, error) {
	switch name {
	case "sweep":
		return newSweep()
	case "optimize":
		return newOptimize(seed)
	case "serve":
		return newServe(seed, dir, fs), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want %s)", name, strings.Join(workloadNames, ", "))
}

// run sets the workload up, measures it and checks it. An untraced run
// reports the end-to-end metrics; a traced run measures half its time
// untraced and half traced (the difference is the tracing overhead), then
// runs the per-layer probes.
func run(o options) (*record, error) {
	dir, err := filepath.Abs(filepath.Join(o.out, fmt.Sprintf("run-%d", os.Getpid())))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	fs := newTimingFS()
	w, err := newWorkload(o.workload, o.seed, dir, fs)
	if err != nil {
		return nil, err
	}
	defer w.close()

	rec := &record{Workload: o.workload, Seed: o.seed, Trace: o.trace, Seconds: o.dur.Seconds(), Env: currentEnv()}
	// One operation at a time: the workloads' own calls run serially, so
	// a busy second core, which a 2-wide pool waits on, does not show as a
	// slower program. The daemon's clients still overlap (see serve).
	core.SetParallelism(1)
	_, network := w.(*serveWorkload)
	clk, err := newHostClock(network)
	if err != nil {
		return nil, err
	}
	defer clk.close()
	for i := 0; i < setupReps; i++ {
		if err := clk.read(); err != nil {
			return nil, err
		}
		t0 := time.Now()
		if err := w.setup(i == setupReps-1); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		rec.SetupS = append(rec.SetupS, time.Since(t0).Seconds())
	}
	if err := clk.read(); err != nil {
		return nil, err
	}
	setupS := make([]float64, setupReps)
	for i, s := range rec.SetupS {
		setupS[i] = s / ((clk.readings[i] + clk.readings[i+1]) / 2)
	}
	if err := w.warm(); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}

	if !o.trace {
		p, err := measurePhase(w, o.dur, nil, clk)
		if err != nil {
			return nil, err
		}
		rec.Slowness, rec.HostSlowness = clk.readings, clk.slowness()
		vals, tails := endToEndMetrics(median(setupS), p)
		if rec.Metrics, err = render(endToEnd, vals); err != nil {
			return nil, err
		}
		rec.Tails, rec.Attempted, rec.Failed = tails, p.attempted, p.failed
		rec.Quantiles = map[string]map[string]float64{"call": quantileTable(p.call), "hit": quantileTable(p.hit), "compute": quantileTable(p.compute)}
		rec.ModelErrPct = p.paperErrPct
	} else if err := traced(o, w, fs, dir, clk, rec); err != nil {
		return nil, err
	}
	rec.Correct = rec.Failed == 0
	if err := save(o.out, rec); err != nil {
		return nil, err
	}
	return rec, nil
}

// traced is the traced run: an untraced half, a traced half under the CPU
// profiler, then the probes.
func traced(o options, w workload, fs *timingFS, dir string, clk *hostClock, rec *record) error {
	p0, err := measurePhase(w, o.dur/2, nil, clk)
	if err != nil {
		return err
	}

	tr := newTracer()
	fs.attach(tr)
	defer fs.attach(nil)
	var prof bytes.Buffer
	rt0 := readRuntime()
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return err
	}
	p1, err := measurePhase(w, o.dur/2, tr, clk)
	pprof.StopCPUProfile()
	if err != nil {
		return err
	}
	rt1 := readRuntime()
	rec.Slowness, rec.HostSlowness = clk.readings, clk.slowness()

	vals := map[string]float64{}
	for k, v := range w.layer() {
		vals[k] = v
	}
	shares, err := cpuShares(prof.Bytes())
	if err != nil {
		return err
	}
	for k, v := range shares {
		vals[k] = v
	}
	if p1.work > 0 {
		vals["go.alloc_bytes_per_work"] = float64(rt1.allocBytes-rt0.allocBytes) / p1.work
		vals["go.allocs_per_work"] = float64(rt1.allocs-rt0.allocs) / p1.work
	}
	vals["go.gc_cycles"] = float64(rt1.gcCycles - rt0.gcCycles)
	if cpu := rt1.totalCPU - rt0.totalCPU; cpu > 0 {
		vals["go.gc_cpu_frac"] = (rt1.gcCPU - rt0.gcCPU) / cpu
	}
	rate0, rate1 := p0.work/p0.elapsed.Seconds(), p1.work/p1.elapsed.Seconds()
	if rate0 > 0 {
		vals["trace_overhead_pct"] = 100 * (rate0 - rate1) / rate0
	}
	rec.Attempted, rec.Failed = p0.attempted+p1.attempted, p0.failed+p1.failed
	vals["error_frac"] = errorFrac(rec.Attempted, rec.Failed)

	for _, probe := range []func(*tracer, map[string]float64) error{probeCore, probeSim, probeVerify, probeFingerprint} {
		if err := probe(tr, vals); err != nil {
			return err
		}
	}
	// The daemon probes use the serve workload's own daemon, or a short
	// serve phase on a fresh one elsewhere, so storage and request costs
	// are read the same way on every workload.
	sw, ok := w.(*serveWorkload)
	if !ok {
		sw = newServe(o.seed, filepath.Join(dir, "probe"), fs)
		defer sw.close()
		if err := sw.setup(true); err != nil {
			return fmt.Errorf("probe daemon: %w", err)
		}
		if p := sw.measure(time.Now().Add(time.Second), tr); p.failed > 0 {
			return fmt.Errorf("probe daemon: %d of %d requests failed", p.failed, p.attempted)
		}
	}
	if err := probeDaemon(tr, sw.d, o.seed, vals); err != nil {
		return err
	}
	vals["serve.doc_kb"] = sw.docKB
	rec.ModelErrPct = vals[modelErrKey]
	for k, v := range fs.layer() {
		vals[k] = v
	}
	spans := tr.snapshot()
	requestSpans(spans, vals)
	rec.SpanSelf = spanSelf(spans)

	if rec.Metrics, err = render(perLayer, vals); err != nil {
		return err
	}
	base := filepath.Join(o.out, fmt.Sprintf("%s-s%d", o.workload, o.seed))
	if err := storage.Disk.WriteFile(base+".spans.jsonl", jsonl(spans), 0o644); err != nil {
		return err
	}
	return storage.Disk.WriteFile(base+".cpu.pprof", prof.Bytes(), 0o644)
}

// save writes the run's record under out/results.
func save(out string, rec *record) error {
	dir := filepath.Join(out, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	name := fmt.Sprintf("%s-s%d-t%d-%d.json", rec.Workload, rec.Seed, btoi(rec.Trace), time.Now().UnixNano())
	return writeJSON(filepath.Join(dir, name), rec)
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// report prints the metrics readably, then the result line.
func report(w *os.File, rec *record) {
	e := rec.Env
	fmt.Fprintf(w, "perfbench %s seed=%d trace=%v nproc=%d gomaxprocs=%d %s cpu=%q describe=%s\n",
		rec.Workload, rec.Seed, rec.Trace, e.NProc, e.GOMAXPROCS, e.GoVersion, e.CPUModel, e.GitDescribe)
	defs := endToEnd
	if rec.Trace {
		defs = perLayer
		fmt.Fprintf(w, "  host slowness %.4f (median of %d readings); per-layer times are wall-clock\n", rec.HostSlowness, len(rec.Slowness))
	} else {
		fmt.Fprintf(w, "  host slowness %.4f (median of %d readings); times below are wall-clock divided by the readings around them\n", rec.HostSlowness, len(rec.Slowness))
	}
	for _, d := range defs {
		m := rec.Metrics[d.name]
		line := fmt.Sprintf("  %-32s %14.6g %s", d.name, m.Value, m.Unit)
		if t, ok := rec.Tails[d.name]; ok {
			line += fmt.Sprintf("  (p%g of %d samples, %d beyond)", t.Percentile, t.Samples, t.Beyond)
		}
		if d.unit == simUS {
			line += fmt.Sprintf("  (simulated; model error vs the paper's dec3000 Te %.2f%%; no paper reference off dec3000)", rec.ModelErrPct)
		}
		fmt.Fprintln(w, line)
	}
	for _, c := range []string{"call", "hit", "compute"} {
		if q, ok := rec.Quantiles[c]; ok && q["n"] > 0 {
			fmt.Fprintf(w, "  %-8s latency ms over %d: p50 %.4g  p75 %.4g  p90 %.4g  p95 %.4g  p99 %.4g  p99.9 %.4g\n",
				c, int(q["n"]), q["p50"], q["p75"], q["p90"], q["p95"], q["p99"], q["p99.9"])
		}
	}
	fmt.Fprintf(w, "  attempted %d, failed %d\n", rec.Attempted, rec.Failed)
	b, _ := json.Marshal(result{Correct: rec.Correct, Attempted: rec.Attempted, Failed: rec.Failed, Metrics: rec.Metrics})
	fmt.Fprintln(w, string(b))
}

func currentEnv() environment {
	e := environment{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), CPUModel: runtime.GOARCH, GitDescribe: "unknown"}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	// Only a checkout that is itself a repository is described; a parent
	// directory's repository says nothing about this code.
	if _, err := os.Stat(".git"); err == nil {
		if b, err := exec.Command("git", "describe", "--always", "--dirty").Output(); err == nil {
			e.GitDescribe = strings.TrimSpace(string(b))
		}
	}
	return e
}
