package optimize

import (
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/code"
	"repro/internal/core"
	"repro/internal/machines"
	"repro/internal/obs"
)

func quickConfig(t *testing.T, models string) Config {
	t.Helper()
	sel, err := machines.Select(models)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Default(core.StackTCPIP, 1)
	cfg.Models = sel
	cfg.Budget = 40
	cfg.TopK = 2
	cfg.Quality = core.Quality{Warmup: 2, Measured: 4, Samples: 1}
	return cfg
}

func TestSearchBeatsOrMatchesHandOnBaseline(t *testing.T) {
	// Full default budget: the quick config's 40 steps are enough to
	// exercise the machinery but not to out-place the hand layout.
	cfg := quickConfig(t, "dec3000")
	cfg.Budget = DefaultBudget
	cfg.TopK = DefaultTopK
	cfg.Quality = core.Quality{}
	results, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 {
		t.Fatalf("got %d results", len(results))
	}
	r := results[0]
	if len(r.Candidates) == 0 {
		t.Fatal("no confirmed candidates")
	}
	// The simulator has the final word: measured Tp no worse than hand on
	// the 21064 baseline (the acceptance criterion of the search). The
	// predicted cost only guides the search — the hand bipartite layout
	// stripes the working set and predicts near zero, which a contiguous
	// packing cannot reach even when its measured Tp is better.
	best := r.Candidates[0]
	if best.MeasuredTpUS > r.HandTpUS {
		t.Fatalf("best measured Tp %.3f us above hand %.3f us", best.MeasuredTpUS, r.HandTpUS)
	}
	if r.Examined <= r.RejectedWellFormed+r.RejectedEquivalence {
		t.Fatalf("nothing survived the gates: examined %d, rejected %d+%d",
			r.Examined, r.RejectedWellFormed, r.RejectedEquivalence)
	}
}

func TestTamperProbeExercisesEquivalenceGate(t *testing.T) {
	results, err := Run(quickConfig(t, "dec3000"))
	if err != nil {
		t.Fatal(err)
	}
	if got := results[0].RejectedEquivalence; got < 1 {
		t.Fatalf("equivalence gate rejected %d candidates; the tamper probe alone must count", got)
	}
}

func TestSearchCoversMachinesWithoutHandLayouts(t *testing.T) {
	// future266 and line128 have no hand-derived layout in the paper; the
	// search must still produce verify-clean confirmed candidates there.
	results, err := Run(quickConfig(t, "future266,line128"))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if len(r.Candidates) == 0 {
			t.Fatalf("%s: no confirmed candidates", r.Model.Name)
		}
		for _, c := range r.Candidates {
			if c.MeasuredTpUS <= 0 {
				t.Fatalf("%s #%d: no confirmation measurement", r.Model.Name, c.Rank)
			}
		}
	}
}

func TestSearchIsDeterministic(t *testing.T) {
	run := func() []byte {
		results, err := Run(quickConfig(t, "dec3000,line128"))
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(DocOf(quickConfig(t, "dec3000,line128"), results))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := run(), run()
	if string(a) != string(b) {
		t.Fatal("two identical searches produced different documents")
	}
}

func TestWeightsFromProfile(t *testing.T) {
	p := obs.NewProfile(4)
	p.Funcs["tcp_input"] = &obs.FuncStats{Name: "tcp_input", Calls: 7}
	p.Funcs["idle"] = &obs.FuncStats{Name: "idle"}
	w := WeightsFromProfile(p)
	if w["tcp_input"] != 7 {
		t.Fatalf("tcp_input weight = %g, want 7", w["tcp_input"])
	}
	if _, ok := w["idle"]; ok {
		t.Fatal("zero-call function got a weight")
	}
	if len(WeightsFromProfile(nil)) != 0 {
		t.Fatal("nil profile produced weights")
	}
}

// TestEvalAllocations pins the allocations of scoring one candidate on
// dec3000: the reference clone, placement, data link, both proofs and the
// cost engine. It is the search's counterpart to the engine's alloc-free
// step loop: allocation counts are deterministic, so a change that brings
// back per-instruction copies, per-block maps or string-keyed tables shows
// here as a count, not as timing noise.
func TestEvalAllocations(t *testing.T) {
	s, order, pads := dec3000Searcher(t)
	if _, ok := s.eval(order, pads); !ok {
		t.Fatal("greedy order rejected")
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, ok := s.eval(order, pads); !ok {
			t.Fatal("greedy order rejected")
		}
	})
	const ceiling = 1005
	if allocs > ceiling {
		t.Fatalf("one candidate evaluation allocates %.0f objects, ceiling %d", allocs, ceiling)
	}
}

// dec3000Searcher returns the searcher of a dec3000 search and its greedy
// seed candidate.
func dec3000Searcher(t *testing.T) (*searcher, []string, []int) {
	t.Helper()
	cfg := quickConfig(t, "dec3000")
	in, err := prepare(cfg)
	if err != nil {
		t.Fatal(err)
	}
	order := greedyOrder(in.ref, in.spec, in.weights)
	return newSearcher(cfg, cfg.Models[0], in), order, make([]int, len(order))
}

// TestInstrStaysSmallAndPointerFree guards the layout that makes cloning a
// candidate a plain memory copy: code.Instr must stay within 16 bytes and
// hold no field the garbage collector has to scan.
func TestInstrStaysSmallAndPointerFree(t *testing.T) {
	typ := reflect.TypeOf(code.Instr{})
	if typ.Size() > 16 {
		t.Fatalf("code.Instr is %d bytes, want at most 16", typ.Size())
	}
	for i := 0; i < typ.NumField(); i++ {
		if f := typ.Field(i); !pointerFree(f.Type) {
			t.Errorf("code.Instr.%s (%s) holds a pointer", f.Name, f.Type)
		}
	}
}

// pointerFree reports whether values of t contain no pointers.
func pointerFree(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return true
	case reflect.Array:
		return t.Len() == 0 || pointerFree(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if !pointerFree(t.Field(i).Type) {
				return false
			}
		}
		return true
	}
	return false
}
