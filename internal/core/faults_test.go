package core

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/faults"
)

// quickFaultCfg is a small fault study for tests.
func quickFaultCfg(kind StackKind) FaultStudyConfig {
	return FaultStudyConfig{
		Stack:    kind,
		Seed:     13,
		Rates:    []float64{0, 0.05},
		Versions: []Version{STD, PIN},
		Quality:  Quality{Warmup: 2, Measured: 8, Samples: 1},
	}
}

// TestFaultStudyParallelMatchesSerial: the study must be invisible to the
// worker pool — identical cells and identical rendered bytes at any width.
func TestFaultStudyParallelMatchesSerial(t *testing.T) {
	for _, kind := range []StackKind{StackTCPIP, StackRPC} {
		cfg := quickFaultCfg(kind)
		var serial, parallel []FaultCell
		var serialTxt, parallelTxt string
		study := func(cells *[]FaultCell, txt *string) func() {
			return func() {
				var err error
				if *cells, err = FaultStudy(cfg); err != nil {
					t.Fatal(err)
				}
				rcells, err := RecoveryComparison(kind, cfg.Seed, cfg.Quality)
				if err != nil {
					t.Fatal(err)
				}
				*txt = RenderFaultStudy(cfg, *cells, rcells)
			}
		}
		withParallelism(t, 1, study(&serial, &serialTxt))
		withParallelism(t, 8, study(&parallel, &parallelTxt))
		if !reflect.DeepEqual(serial, parallel) {
			t.Fatalf("%v: parallel cells differ from serial", kind)
		}
		if serialTxt != parallelTxt {
			t.Fatalf("%v: rendered report differs across parallelism", kind)
		}
	}
}

// TestFaultStudyInjectsAndRecovers: fault cells must actually inject and the
// ping-pong must still complete, with degraded roundtrips observed at a
// meaningful rate.
func TestFaultStudyInjectsAndRecovers(t *testing.T) {
	cells, err := FaultStudy(quickFaultCfg(StackTCPIP))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cells {
		if c.Rate == 0 {
			if c.Stats.Injected.Injected() != 0 || c.DegradedRT != 0 {
				t.Fatalf("baseline cell injected faults: %+v", c)
			}
			continue
		}
		if c.Stats.Injected.Injected() == 0 {
			t.Fatalf("fault cell %v/%.2f injected nothing", c.Version, c.Rate)
		}
		if c.CleanRT+c.DegradedRT != 8 {
			t.Fatalf("cell %v/%.2f attributed %d+%d roundtrips, want 8",
				c.Version, c.Rate, c.CleanRT, c.DegradedRT)
		}
	}
}

// TestFaultStudyReconciles: injector counters must equal link counters in
// every fault cell (the per-run invariant, re-checked on the aggregate).
func TestFaultStudyReconciles(t *testing.T) {
	cells, err := FaultStudy(quickFaultCfg(StackRPC))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cells {
		if c.Rate == 0 {
			continue
		}
		s := c.Stats
		if s.Injected.Frames != s.LinkFrames || s.Injected.Dropped != s.LinkDropped ||
			s.Injected.Duplicated != s.LinkDuplicated {
			t.Fatalf("cell %v/%.2f: injector %v vs link frames=%d dropped=%d duplicated=%d",
				c.Version, c.Rate, s.Injected, s.LinkFrames, s.LinkDropped, s.LinkDuplicated)
		}
	}
}

// TestRunWithFaultsRecordsStats: the plain Run API must surface per-sample
// fault stats when a plan is configured.
func TestRunWithFaultsRecordsStats(t *testing.T) {
	cfg := quickCfg(StackTCPIP, STD)
	cfg.Warmup, cfg.Measured, cfg.Samples = 2, 6, 2
	cfg.Faults = &faults.Plan{Seed: 99, DupProb: 0.2}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tot := res.FaultTotals()
	if tot.Injected.Duplicated == 0 {
		t.Fatal("duplication plan never duplicated a frame")
	}
	if tot.Injected.Dropped != 0 || tot.Injected.Corrupted != 0 {
		t.Fatalf("dup-only plan injected other faults: %v", tot.Injected)
	}
	if tot.LinkFrames == 0 || tot.Injected.Frames != tot.LinkFrames {
		t.Fatalf("injector saw %d frames, link %d", tot.Injected.Frames, tot.LinkFrames)
	}
}

// TestEventBudgetErrs: an absurdly small budget must surface as a
// structured BudgetError naming the sample, not a hang or a stall error.
func TestEventBudgetErrs(t *testing.T) {
	cfg := quickCfg(StackTCPIP, STD)
	cfg.Samples = 1
	cfg.EventBudget = 10
	_, err := Run(cfg)
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("err = %v, want *BudgetError", err)
	}
	if be.Budget != 10 || be.Sample != 0 {
		t.Fatalf("BudgetError fields: %+v", be)
	}
	if !strings.Contains(be.Error(), "event budget") {
		t.Fatalf("message: %q", be.Error())
	}
}

// TestRecoverSampleConvertsPanics: a panicking simulation becomes a
// SimPanicError carrying the sample index, fault seed and stack.
func TestRecoverSampleConvertsPanics(t *testing.T) {
	cfg := quickCfg(StackTCPIP, STD)
	cfg.Faults = &faults.Plan{Seed: 7, LossProb: 0.1}
	boom := func() (err error) {
		defer recoverSample(cfg, 3, &err)
		panic("simulated blowup")
	}
	err := boom()
	var pe *SimPanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *SimPanicError", err)
	}
	if pe.Sample != 3 || pe.Value != "simulated blowup" || len(pe.Stack) == 0 {
		t.Fatalf("SimPanicError fields: sample=%d value=%v stack=%d bytes",
			pe.Sample, pe.Value, len(pe.Stack))
	}
	if pe.Seed != cfg.faultSeed(3) {
		t.Fatalf("seed %d, want the sample's derived fault seed %d", pe.Seed, cfg.faultSeed(3))
	}
	if !strings.Contains(pe.Error(), "sample 3") {
		t.Fatalf("message: %q", pe.Error())
	}
}

// TestFaultFreeRunsUnchangedByFaultsField: a nil plan (and an inactive one)
// must leave results byte-identical to the seed behaviour — the injector is
// only attached when the plan can act.
func TestFaultFreeRunsUnchangedByFaultsField(t *testing.T) {
	base := quickCfg(StackTCPIP, ALL)
	base.Samples = 1
	r1, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	inactive := base
	inactive.Faults = &faults.Plan{Seed: 5} // no probabilities: inactive
	r2, err := Run(inactive)
	if err != nil {
		t.Fatal(err)
	}
	// Config differs by the plan pointer; the measurements must not.
	if !reflect.DeepEqual(r1.Samples, r2.Samples) ||
		r1.TeMeanUS != r2.TeMeanUS || r1.TeStdUS != r2.TeStdUS {
		t.Fatal("inactive fault plan changed the measurements")
	}
}
