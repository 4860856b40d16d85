package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/machines"
	"repro/internal/optimize"
	"repro/internal/protocols/features"
)

// optMachines are searched one optimize.Run each: the paper's machine, its
// 266 MHz successor, and 128-byte lines, where the search at this budget
// usually loses to the hand layout.
var optMachines = []string{"dec3000", "future266", "line128"}

const (
	optBudget = 300
	optTopK   = 3
)

// optQuality is the search's confirmation quality (its default).
var optQuality = core.Quality{Warmup: 4, Measured: 12, Samples: 1}

// optRef pins the hand bipartite ALL layout per machine at the search's
// confirmation quality. Searched results are not pinned, so a better
// search is never a failure.
type optRef struct {
	HandTpUS map[string]float64 `json:"hand_tp_us"`
	HandTeUS map[string]float64 `json:"hand_te_us"`
}

// handConfig is the run optimize confirms its baseline with: the hand ALL
// layout at the search's quality.
func handConfig(m machines.Model) core.Config {
	return optQuality.Apply(core.Config{
		Stack:    core.StackTCPIP,
		Version:  core.ALL,
		Feat:     features.Improved(),
		Strategy: core.Bipartite,
		Machine:  m.Machine,
	})
}

// optWorkload repeats the layout search on each machine (the compute
// class) and re-runs the hand layout it is judged against from the cached
// image (the hit class).
type optWorkload struct {
	seed   uint64
	models []machines.Model
	ref    optRef
	latest map[string]optimize.MachineResult
	hand   map[string]*core.Result
	turn   int // searches so far; picks the next machine
}

func newOptimize(seed uint64) (*optWorkload, error) {
	ref, err := loadRef[optRef]("optimize.json")
	if err != nil {
		return nil, err
	}
	w := &optWorkload{seed: seed, ref: ref, latest: map[string]optimize.MachineResult{}, hand: map[string]*core.Result{}}
	for _, n := range optMachines {
		w.models = append(w.models, model(n))
	}
	return w, nil
}

func (w *optWorkload) setup(bool) error {
	var imgs []image
	for _, m := range w.models {
		imgs = append(imgs, image{stack: core.StackTCPIP, version: core.ALL, machine: m.Machine})
	}
	if err := coldBuild(imgs, nil); err != nil {
		return err
	}
	_, _, _, err := core.OptimizeMaterial(core.StackTCPIP, features.Improved())
	return err
}

func (w *optWorkload) warm() error {
	for _, m := range w.models {
		if _, err := core.Run(handConfig(m)); err != nil {
			return fmt.Errorf("%s: %w", m.Name, err)
		}
	}
	return nil
}

// search runs one machine's layout search and checks it: the tamper probe
// was rejected, a candidate was confirmed, and the hand baseline matches
// the reference.
func (w *optWorkload) search(m machines.Model, tr *tracer) (time.Duration, bool) {
	cfg := optimize.Config{
		Stack:   core.StackTCPIP,
		Models:  []machines.Model{m},
		Seed:    w.seed,
		Budget:  optBudget,
		TopK:    optTopK,
		Quality: optQuality,
	}
	id := tr.start("optimize.Run", "", 0)
	t0 := time.Now()
	rs, err := optimize.Run(cfg)
	d := time.Since(t0)
	tr.stop(id)
	if err != nil || len(rs) != 1 {
		return d, false
	}
	r := rs[0]
	w.latest[m.Name] = r
	return d, r.RejectedEquivalence >= 1 && len(r.Candidates) >= 1 && r.HandTpUS == w.ref.HandTpUS[m.Name]
}

// rerunHand re-measures the hand layout from the cached image.
func (w *optWorkload) rerunHand(m machines.Model, tr *tracer) (time.Duration, bool) {
	id := tr.start("core.Run", "", 0)
	t0 := time.Now()
	res, err := core.Run(handConfig(m))
	d := time.Since(t0)
	tr.stop(id)
	if err != nil {
		return d, false
	}
	w.hand[m.Name] = res
	return d, res.TpMeanUS() == w.ref.HandTpUS[m.Name] && res.TeMeanUS == w.ref.HandTeUS[m.Name]
}

// handReruns is how many times each search's hand layout is re-run, so the
// hit class has enough samples for a stable median.
const handReruns = 15

func (w *optWorkload) begin() {}

// measure runs one machine's search and its hand re-runs per call, so a
// slice between two host clock readings is about a second long. The
// machines take turns across calls, so each, whose searches differ in
// cost, contributes equally to the medians.
func (w *optWorkload) measure(deadline time.Time, tr *tracer) *phase {
	p := &phase{}
	for time.Now().Before(deadline) {
		m := w.models[w.turn%len(w.models)]
		w.turn++
		d, ok := w.search(m, tr)
		p.record(false, true, d, ok)
		p.work += float64(w.latest[m.Name].Examined)
		// The re-runs start on a collected heap, so their latency is
		// their own and not the collection of the search's garbage.
		runtime.GC()
		for i := 0; i < handReruns; i++ {
			d, ok = w.rerunHand(m, tr)
			p.record(true, false, d, ok)
		}
	}
	p.paperErrPct, p.optTpUS = w.simulated()
	return p
}

// simulated is the model's error against the paper's TCP/IP ALL Te (the
// one dec3000 cell this workload measures) and the geometric mean over
// the machines of the best confirmed candidate's Tp.
func (w *optWorkload) simulated() (errPct, tpUS float64) {
	te := map[cellKey]float64{}
	if r := w.hand["dec3000"]; r != nil {
		te[cellKey{core.StackTCPIP, core.ALL}] = r.TeMeanUS
	}
	var best []float64
	for _, m := range w.models {
		if r, ok := w.latest[m.Name]; ok && len(r.Candidates) > 0 {
			best = append(best, r.Candidates[0].MeasuredTpUS)
		}
	}
	return paperErrPct(te), geomean(best)
}

// layer sums the search's counters over each machine's latest search.
func (w *optWorkload) layer() map[string]float64 {
	var examined, rejWF, rejEq, pred, meas, absErr float64
	for _, m := range w.models {
		r, ok := w.latest[m.Name]
		if !ok {
			continue
		}
		examined += float64(r.Examined)
		rejWF += float64(r.RejectedWellFormed)
		rejEq += float64(r.RejectedEquivalence)
		if len(r.Candidates) > 0 {
			c := r.Candidates[0]
			pred += float64(c.PredictedRepl)
			meas += float64(c.MeasuredRepl)
			absErr += math.Abs(float64(c.PredictedRepl) - float64(c.MeasuredRepl))
		}
	}
	out := map[string]float64{
		"opt.examined":       examined,
		"opt.rejected_wf":    rejWF,
		"opt.rejected_equiv": rejEq,
		"opt.pred_repl":      pred,
		"opt.meas_repl":      meas,
	}
	if examined > 0 {
		out["opt.scored_frac"] = (examined - rejWF - rejEq) / examined
	}
	if meas > 0 {
		out["opt.repl_err"] = absErr / meas
	}
	return out
}

func (w *optWorkload) close() {}
