package models

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/code"
	"repro/internal/sim/cpu"
	"repro/internal/sim/mem"
)

func linkLibrary(t *testing.T, improvedRefresh bool) (*code.Program, *code.Engine) {
	t.Helper()
	p := code.NewProgram()
	if err := p.Add(Library(improvedRefresh)...); err != nil {
		t.Fatal(err)
	}
	if err := p.Link(); err != nil {
		t.Fatal(err)
	}
	h := mem.New(arch.DEC3000_600())
	return p, code.NewEngine(cpu.New(h), p)
}

func TestAllLibraryFunctionsExecutable(t *testing.T) {
	p, e := linkLibrary(t, true)
	env := code.NewBinding()
	env.Set("map.found", true)
	env.Set("msg.lastref", true)
	for _, f := range p.Funcs() {
		if err := e.Run(f.Name, env); err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
	}
}

func TestLibraryNamesResolve(t *testing.T) {
	p, _ := linkLibrary(t, false)
	for _, n := range LibraryNames() {
		if p.Func(n) == nil {
			t.Fatalf("LibraryNames lists %q, which the library does not define", n)
		}
	}
}

func TestAllLibraryClassIsLibrary(t *testing.T) {
	p, _ := linkLibrary(t, true)
	for _, f := range p.Funcs() {
		if f.Class != code.ClassLibrary {
			t.Fatalf("%s is %v, want library class", f.Name, f.Class)
		}
	}
}

// The §2.2.2 refresh claim: the original path is a couple hundred dynamic
// instructions heavier than the short-circuiting one.
func TestRefreshVariantsDiffer(t *testing.T) {
	run := func(improved bool) uint64 {
		_, e := linkLibrary(t, improved)
		env := code.NewBinding()
		env.Set("msg.lastref", true)
		env.Set("pool.shared", false)
		before := e.CPU().Metrics().Instructions
		if err := e.Run("pool_refresh", env); err != nil {
			t.Fatal(err)
		}
		return e.CPU().Metrics().Instructions - before
	}
	orig := run(false)
	impr := run(true)
	if impr >= orig {
		t.Fatalf("improved refresh (%d instrs) not cheaper than original (%d)", impr, orig)
	}
	if orig-impr < 100 || orig-impr > 500 {
		t.Fatalf("refresh saving %d instructions implausible vs the paper's 208", orig-impr)
	}
}

// divrem trip counts respond to the bound condition, so TCP's division
// avoidance shows up as fewer dynamic instructions.
func TestDivremCounted(t *testing.T) {
	_, e := linkLibrary(t, true)
	run := func(iters int) uint64 {
		env := code.NewBinding().PushCount("div.more", iters)
		before := e.CPU().Metrics().Instructions
		if err := e.Run("divrem", env); err != nil {
			t.Fatal(err)
		}
		return e.CPU().Metrics().Instructions - before
	}
	short := run(2)
	long := run(20)
	if long <= short {
		t.Fatal("divide loop not driven by trip count")
	}
}

func TestLibraryHotSizesFitPartition(t *testing.T) {
	// The bipartite library partition clamps at half the i-cache; the
	// library's combined mainline must fit comfortably so it can actually
	// be protected.
	p, _ := linkLibrary(t, true)
	total := 0
	for _, f := range p.Funcs() {
		total += f.MainlineInstrs()
	}
	m := arch.DEC3000_600()
	if total*m.InstrBytes > m.ICacheBytes/2 {
		t.Fatalf("library mainline %d bytes exceeds half the i-cache", total*m.InstrBytes)
	}
}
