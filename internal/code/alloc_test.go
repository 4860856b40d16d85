package code

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/sim/cpu"
	"repro/internal/sim/mem"
)

// TestEngineStepLoopAllocFree pins the engine's steady-state execution at
// zero heap allocations per model invocation. The per-instruction step loop
// (entry construction, Env condition and address lookups, cache simulation)
// is the hot path of every experiment sample; an allocation introduced there
// multiplies by the dynamic instruction count and reintroduces the GC
// pressure that used to serialize the parallel runner.
func TestEngineStepLoopAllocFree(t *testing.T) {
	f := NewBuilder("hot", ClassPath).
		Frame(2).
		Block("entry").ALU(3).Load("state", 2).Store("state", 1).Cond("more", "entry", "done").
		Block("done").ALU(1).Ret().
		MustBuild()
	p := NewProgram()
	p.MustAdd(f)
	if err := p.Link(); err != nil {
		t.Fatalf("Link: %v", err)
	}
	e := NewEngine(cpu.New(mem.New(arch.DEC3000_600())), p)
	env := NewBinding()
	env.Bind(Intern("state"), 0x1000)
	env.Bind(Intern("$stack"), 0x2000)
	env.SetFunc("more", Counter(func() int { return 8 }))

	e.MustRun("hot", env) // warm the caches and any lazy state
	allocs := testing.AllocsPerRun(50, func() {
		e.MustRun("hot", env)
	})
	if allocs != 0 {
		t.Fatalf("engine step loop allocates %.1f objects per run, want 0", allocs)
	}
}

// TestEngineRunWithObserverAllocFree covers the traced variant: installing an
// Observer must not make the loop allocate either (the entry is passed by
// value to a pre-bound closure).
func TestEngineRunWithObserverAllocFree(t *testing.T) {
	f := NewBuilder("hot", ClassPath).
		ALU(16).Ret().
		MustBuild()
	p := NewProgram()
	p.MustAdd(f)
	if err := p.Link(); err != nil {
		t.Fatalf("Link: %v", err)
	}
	e := NewEngine(cpu.New(mem.New(arch.DEC3000_600())), p)
	var n int
	e.Observer = func(cpu.Entry) { n++ }
	e.MustRun("hot", nil)
	env := NewBinding()
	allocs := testing.AllocsPerRun(50, func() {
		e.MustRun("hot", env)
	})
	if allocs != 0 {
		t.Fatalf("observed step loop allocates %.1f objects per run, want 0", allocs)
	}
}
