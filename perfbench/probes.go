package main

import (
	"fmt"
	"net/http"
	"sort"
	"time"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/protocols/features"
	"repro/internal/serve"
	"repro/internal/sim/mem"
	"repro/internal/soak"
	"repro/internal/trace"
	"repro/internal/verify"
)

// The probes run after a traced phase, identically on every workload, so
// each per-layer unit cost is measured the same way wherever it is read.
// Each calls one public function of one layer, inside a span.

// timeIt runs fn at least reps times and for at least minDur, and returns
// the median duration of one call.
func timeIt(tr *tracer, name string, reps int, minDur time.Duration, fn func() error) (time.Duration, error) {
	var ds []float64
	start := time.Now()
	for i := 0; i < reps || time.Since(start) < minDur; i++ {
		id := tr.start(name, "", 0)
		t0 := time.Now()
		err := fn()
		ds = append(ds, float64(time.Since(t0)))
		tr.stop(id)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
	}
	return time.Duration(median(ds)), nil
}

// modelErrKey carries the probes' model error against the paper to the
// run record; it is not a per-layer metric.
const modelErrKey = "model_err_pct"

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// probeCore measures the core layer's unit costs and, from one pass of the
// sweep cells, the simulated per-layer counts.
func probeCore(tr *tracer, out map[string]float64) error {
	dec := model("dec3000").Machine
	feat := features.Improved()
	d, err := timeIt(tr, "core.BuildProgramUncached", 5, 0, func() error {
		_, err := core.BuildProgramUncached(core.StackTCPIP, core.ALL, feat, core.Bipartite, dec)
		return err
	})
	if err != nil {
		return err
	}
	out["core.build_ms"] = ms(d)

	var runs []float64
	var sums [7]float64
	te := map[cellKey]float64{}
	var phases obs.PhaseSplit
	nPhase := 0
	for _, c := range sweepCells() {
		id := tr.start("core.Run", "", 0)
		t0 := time.Now()
		res, err := core.Run(c.cfg)
		runs = append(runs, float64(time.Since(t0)))
		tr.stop(id)
		if err != nil {
			return fmt.Errorf("core.Run %s: %w", c.name(), err)
		}
		for _, s := range res.Samples {
			sums[0] += s.TraceLen
			sums[1] += float64(s.ICache.Misses)
			sums[2] += float64(s.ICache.ReplMisses)
			sums[3] += float64(s.DCache.Misses)
			sums[4] += float64(s.BCache.Misses)
			sums[5] += float64(s.L2Cache.Misses)
			sums[6] += float64(s.VictimHits)
			phases.WireUS += s.Phases.WireUS
			phases.ControllerUS += s.Phases.ControllerUS
			phases.ProcessUS += s.Phases.ProcessUS
			phases.TimerWaitUS += s.Phases.TimerWaitUS
			nPhase++
		}
		if c.machine == "dec3000" {
			te[c.key] = res.TeMeanUS
			if c.key == (cellKey{core.StackTCPIP, core.ALL}) {
				out["sim.icpi"], out["sim.mcpi"] = res.ICPIMean(), res.MCPIMean()
			}
		}
	}
	out[modelErrKey] = paperErrPct(te)
	out["core.run_ms"] = ms(time.Duration(median(runs)))
	for i, n := range []string{"instr", "imiss", "irepl", "dmiss", "bmiss", "l2miss", "victim_hits"} {
		out["sim."+n] = sums[i]
	}
	out["sim.wire_us"] = phases.WireUS / float64(nPhase)
	out["sim.ctrl_us"] = phases.ControllerUS / float64(nPhase)
	out["sim.process_us"] = phases.ProcessUS / float64(nPhase)
	out["sim.timer_us"] = phases.TimerWaitUS / float64(nPhase)

	var confirm []float64
	for _, n := range optMachines {
		cfg := handConfig(model(n))
		d, err := timeIt(tr, "core.Run", 3, 0, func() error { _, err := core.Run(cfg); return err })
		if err != nil {
			return err
		}
		confirm = append(confirm, float64(d))
	}
	out["core.confirm_ms"] = ms(time.Duration(median(confirm)))
	return nil
}

// probeSim replays a recorded TCP/IP ALL trace on each sweep machine, once
// through the CPU model and once as raw accesses to the memory hierarchy.
func probeSim(tr *tracer, out map[string]float64) error {
	for _, mn := range sweepMachines {
		m := model(mn).Machine
		cfg := core.Quick.Apply(core.DefaultConfig(core.StackTCPIP, core.ALL))
		cfg.Machine = m
		t, err := core.RecordTrace(cfg)
		if err != nil {
			return fmt.Errorf("record trace %s: %w", mn, err)
		}
		// Replay runs the trace twice: a warm-up pass and a measured one.
		d, err := timeIt(tr, "trace.Replay", 5, 50*time.Millisecond, func() error {
			_, _, err := trace.Replay(t, m)
			return err
		})
		if err != nil {
			return err
		}
		out["sim.replay_ns_per_instr."+mn] = float64(d) / float64(2*t.Len())
		accesses := 0
		d, err = timeIt(tr, "mem.Hierarchy", 5, 50*time.Millisecond, func() error {
			h := mem.New(m)
			accesses = 0
			for i, e := range t.Entries {
				now := uint64(i)
				h.FetchInstr(now, e.Addr)
				accesses++
				if e.Op.AccessesMemory() {
					if e.Op == arch.OpStore {
						h.Store(now, e.DataAddr)
					} else {
						h.Load(now, e.DataAddr)
					}
					accesses++
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		out["mem.ns_per_access."+mn] = float64(d) / float64(accesses)
	}
	return nil
}

// probeVerify times one call each of the static checks and the data link
// on the hand ALL image of every search machine, and reports the median
// over machines.
func probeVerify(tr *tracer, out map[string]float64) error {
	_, spec, usage, err := core.OptimizeMaterial(core.StackTCPIP, features.Improved())
	if err != nil {
		return err
	}
	weights := make(map[string]float64, len(usage))
	for n, c := range usage {
		weights[n] = float64(c)
	}
	cs := verify.CostSpec{PathSpec: verify.PathSpec{Path: spec.Path, Library: spec.Library}, FuncWeights: weights}
	var cost, prog, clone, link []float64
	for _, n := range optMachines {
		m := model(n).Machine
		hand, err := core.BuildProgram(core.StackTCPIP, core.ALL, features.Improved(), core.Bipartite, m)
		if err != nil {
			return err
		}
		d, err := timeIt(tr, "verify.Cost", 5, 0, func() error { _, err := verify.Cost(hand, cs, m); return err })
		if err != nil {
			return err
		}
		cost = append(cost, us(d))
		d, err = timeIt(tr, "verify.Program", 5, 0, func() error { return verify.Program(hand, m) })
		if err != nil {
			return err
		}
		prog = append(prog, us(d))
		cp := hand.Clone()
		d, err = timeIt(tr, "verify.CheckClone", 5, 0, func() error { return verify.CheckClone(hand, cp, nil) })
		if err != nil {
			return err
		}
		clone = append(clone, us(d))
		var linkDs []float64
		for i := 0; i < 5; i++ {
			scratch := hand.Clone()
			id := tr.start("code.LinkData", "", 0)
			t0 := time.Now()
			err := scratch.LinkData()
			linkDs = append(linkDs, float64(time.Since(t0)))
			tr.stop(id)
			if err != nil {
				return err
			}
		}
		link = append(link, median(linkDs)/1e3)
	}
	out["verify.cost_us"] = median(cost)
	out["verify.program_us"] = median(prog)
	out["verify.checkclone_us"] = median(clone)
	out["code.link_us"] = median(link)
	return nil
}

// probeFingerprint times the daemon's spec canonicalization on the serve
// workload's specs.
func probeFingerprint(tr *tracer, out map[string]float64) error {
	specs := []serve.Spec{computeSpec(1, 0), computeSpec(1, 1)}
	for _, k := range stacks {
		for _, v := range core.Versions() {
			specs = append(specs, serve.Spec{Kind: "run", Stack: specStack(k), Version: v.String()})
		}
	}
	d, err := timeIt(tr, "serve.Spec.Fingerprint", 20, 20*time.Millisecond, func() error {
		for _, s := range specs {
			n := s.Normalized()
			if err := n.Validate(); err != nil {
				return err
			}
			_ = n.Fingerprint(daemonDescribe)
		}
		return nil
	})
	if err != nil {
		return err
	}
	out["serve.fingerprint_us"] = us(d) / float64(len(specs))
	return nil
}

// directStudy computes one of client B's studies by a direct library call,
// configured as the daemon configures it.
func directStudy(s serve.Spec) error {
	if s.Kind == "faults" {
		cfg := core.DefaultFaultStudy(core.StackTCPIP, s.Seed)
		cfg.Quality = core.Quality{Warmup: 3, Measured: 12, Samples: 1}
		cfg.Rates = []float64{0.05}
		if _, err := core.FaultStudy(cfg); err != nil {
			return err
		}
		_, err := core.RecoveryComparison(core.StackTCPIP, s.Seed, cfg.Quality)
		return err
	}
	cfg := soak.DefaultConfig(core.StackTCPIP, s.Seed)
	cfg.BatchesPerCell, cfg.BatchRoundtrips = s.SoakBatches, s.SoakRoundtrips
	_, err := soak.Run(cfg)
	return err
}

// probeDaemon computes client B's study shapes directly and through the
// daemon: the difference is what journal, queue, render, persist and HTTP
// add to a compute.
func probeDaemon(tr *tracer, d *daemon, seed uint64, out map[string]float64) error {
	c := newClient(d.addr)
	defer c.close()
	var direct, overhead []float64
	for i := 0; i < 8; i++ {
		// Submission numbers past any a run reaches keep these
		// fingerprints apart from client B's.
		s := computeSpec(seed, probeSpecBase+i)
		var dd time.Duration
		var r reply
		// Each study kind runs direct-first as often as daemon-first, so
		// neither side is the one that warms whatever the other reuses.
		for _, viaDaemon := range []bool{i/2%2 == 1, i/2%2 == 0} {
			var err error
			if viaDaemon {
				r, err = c.do(http.MethodPost, "/v1/experiments", mustJSON(s), "http.compute", tr)
				if err == nil && (r.status != http.StatusOK || r.cache != "computed") {
					err = fmt.Errorf("status %d cache %q", r.status, r.cache)
				}
			} else {
				dd, err = timeIt(tr, "direct."+s.Kind, 1, 0, func() error { return directStudy(s) })
			}
			if err != nil {
				return fmt.Errorf("probe compute: %w", err)
			}
		}
		direct = append(direct, ms(dd))
		overhead = append(overhead, ms(r.duration)-ms(dd))
	}
	out["serve.direct_ms"] = median(direct)
	out["serve.overhead_ms"] = median(overhead)
	return nil
}

// probeSpecBase numbers the probe's submissions.
const probeSpecBase = 1_000_000

// requestSpans reports the median self and storage time of the traced
// HTTP requests: a request's storage spans are its children.
func requestSpans(spans []span, out map[string]float64) {
	self := selfTimes(spans)
	var selfMs, storeMs []float64
	for _, s := range spans {
		if s.Parent != 0 || s.End < s.Start || (s.Name != "http.hit" && s.Name != "http.compute") {
			continue
		}
		selfMs = append(selfMs, float64(self[s.ID])/1e6)
		storeMs = append(storeMs, float64(s.dur()-self[s.ID])/1e6)
	}
	out["span.request_self_ms"] = median(selfMs)
	out["span.request_storage_ms"] = median(storeMs)
}

// spanSelf sums self time per span name, for the run's record.
func spanSelf(spans []span) []nameTotal {
	self := selfTimes(spans)
	by := map[string]float64{}
	for _, s := range spans {
		if s.End >= s.Start {
			by[s.Name] += float64(self[s.ID]) / 1e6
		}
	}
	out := make([]nameTotal, 0, len(by))
	for n, v := range by {
		out = append(out, nameTotal{Name: n, SelfMs: v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// nameTotal is one span name's summed self time.
type nameTotal struct {
	Name   string  `json:"name"`
	SelfMs float64 `json:"self_ms"`
}
