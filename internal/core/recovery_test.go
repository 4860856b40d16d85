package core

import (
	"runtime"
	"testing"

	"repro/internal/arch"
	"repro/internal/faults"
	"repro/internal/protocols/recovery"
	"repro/internal/sim/mem"
)

// recoveryCellFor picks the (policy, rate) cell out of a comparison.
func recoveryCellFor(t *testing.T, cells []RecoveryCell, kind recovery.Kind, rate float64) RecoveryCell {
	t.Helper()
	for _, c := range cells {
		if c.Policy == kind && c.Rate == rate {
			return c
		}
	}
	t.Fatalf("no cell for %v at rate %.2f", kind, rate)
	return RecoveryCell{}
}

// TestAdaptiveBeatsFixedTail is the PR's acceptance criterion: at 10%
// Bernoulli loss the adaptive policy's degraded-path p99 must be strictly
// below the fixed policy's, while the clean population — the roundtrips the
// injector never touched — stays cycle-identical (identical loss decisions
// via the shared per-rate seed, and an armed-but-silent timer consumes no
// simulated time).
func TestAdaptiveBeatsFixedTail(t *testing.T) {
	cells, err := RecoveryComparison(StackTCPIP, 1, Quality{Warmup: 3, Measured: 12, Samples: 2})
	if err != nil {
		t.Fatalf("RecoveryComparison: %v", err)
	}
	for _, rate := range []float64{0.05, 0.10} {
		fixed := recoveryCellFor(t, cells, recovery.Fixed, rate)
		adaptive := recoveryCellFor(t, cells, recovery.Adaptive, rate)
		if fixed.DegradedRT == 0 || adaptive.DegradedRT == 0 {
			t.Fatalf("rate %.2f: empty degraded population (fixed %d, adaptive %d)",
				rate, fixed.DegradedRT, adaptive.DegradedRT)
		}
		if adaptive.DegradedP99US >= fixed.DegradedP99US {
			t.Errorf("rate %.2f: adaptive degraded p99 %.1f us not strictly below fixed %.1f us",
				rate, adaptive.DegradedP99US, fixed.DegradedP99US)
		}
		if fixed.CleanRT != adaptive.CleanRT ||
			fixed.CleanP50US != adaptive.CleanP50US ||
			fixed.CleanP99US != adaptive.CleanP99US {
			t.Errorf("rate %.2f: clean populations differ across policies: rt %d/%d p50 %v/%v p99 %v/%v",
				rate, fixed.CleanRT, adaptive.CleanRT,
				fixed.CleanP50US, adaptive.CleanP50US, fixed.CleanP99US, adaptive.CleanP99US)
		}
	}
}

// TestRecoveryPolicyCleanRunIdentical verifies the zero-risk property at the
// experiment level: without a fault plan, a run under the adaptive policy is
// byte-identical to the fixed default (the timer is armed with a different
// value but never fires).
func TestRecoveryPolicyCleanRunIdentical(t *testing.T) {
	for _, kind := range []StackKind{StackTCPIP, StackRPC} {
		base := DefaultConfig(kind, ALL)
		base.Warmup, base.Measured, base.Samples = 3, 8, 1
		run := func(r recovery.Kind) *Result {
			cfg := base
			cfg.Recovery = r
			res, err := Run(cfg)
			if err != nil {
				t.Fatalf("%v %v: %v", kind, r, err)
			}
			return res
		}
		fixed := run(recovery.Fixed)
		adaptive := run(recovery.Adaptive)
		if fixed.TeMeanUS != adaptive.TeMeanUS {
			t.Errorf("%v: clean TeMeanUS differs: fixed %v vs adaptive %v",
				kind, fixed.TeMeanUS, adaptive.TeMeanUS)
		}
	}
}

// TestRunRoundtripsMatchesSampleLatency cross-checks the per-roundtrip
// driver against the aggregate one: the mean of RunRoundtrips' cycles must
// reproduce the same sample's TeUS.
func TestRunRoundtripsMatchesSampleLatency(t *testing.T) {
	cfg := DefaultConfig(StackTCPIP, ALL)
	cfg.Warmup, cfg.Measured, cfg.Samples = 3, 8, 1
	rts, _, err := RunRoundtrips(cfg, 0)
	if err != nil {
		t.Fatalf("RunRoundtrips: %v", err)
	}
	if len(rts) != cfg.Measured {
		t.Fatalf("got %d roundtrips, want %d", len(rts), cfg.Measured)
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	var sum uint64
	for _, rt := range rts {
		if rt.Degraded {
			t.Fatalf("clean run attributed a degraded roundtrip")
		}
		sum += rt.Cycles
	}
	m := arch.DEC3000_600()
	te := float64(sum) / float64(cfg.Measured) / m.CyclesPerMicrosecond()
	if got := res.Samples[0].TeUS; got != te {
		t.Errorf("mean of roundtrips %.6f us != sample TeUS %.6f us", te, got)
	}
}

// TestRoundtripDriversReleaseHierarchies: RunRoundtrips and the fault
// study's sample driver take their two cache hierarchies from the reuse
// pool and must hand them back, as runSample does. A driver that kept them
// would allocate two fresh hierarchies per call, the bulk of a fault
// study's or soak's garbage. The ceiling is one and a half hierarchies per
// call rather than one because the race detector makes sync.Pool drop a
// quarter of what it is handed.
func TestRoundtripDriversReleaseHierarchies(t *testing.T) {
	m := arch.DEC3000_600()
	perCall := func(f func()) uint64 {
		f()
		var a, b runtime.MemStats
		runtime.ReadMemStats(&a)
		const n = 8
		for i := 0; i < n; i++ {
			f()
		}
		runtime.ReadMemStats(&b)
		return (b.TotalAlloc - a.TotalAlloc) / n
	}
	hierarchy := perCall(func() { mem.New(m) })
	cfg := DefaultConfig(StackTCPIP, ALL)
	cfg.Warmup, cfg.Measured, cfg.Samples = 3, 8, 1
	cfg.Faults = &faults.Plan{Seed: 3, LossProb: 0.05}
	drivers := map[string]func() error{
		"RunRoundtrips":  func() error { _, _, err := RunRoundtrips(cfg, 0); return err },
		"runFaultSample": func() error { _, err := runFaultSample(cfg, 0); return err },
	}
	for _, name := range []string{"RunRoundtrips", "runFaultSample"} {
		var err error
		got := perCall(func() {
			if e := drivers[name](); e != nil {
				err = e
			}
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got >= 3*hierarchy/2 {
			t.Errorf("%s allocates %d bytes per call, one hierarchy is %d: hierarchies not returned to the pool", name, got, hierarchy)
		}
	}
}
