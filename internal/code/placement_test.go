package code

import "testing"

// TestPlaceResolvesSuccessors: Place must pre-resolve the entry block and
// every terminator/fall-through target to placed-block pointers — the
// engine's hot loop depends on them being consistent with the labels.
func TestPlaceResolvesSuccessors(t *testing.T) {
	f := NewBuilder("f", ClassPath).
		Block("entry").ALU(1).Cond("c", "left", "right").
		Block("left").ALU(1).Jump("join").
		Block("right").ALU(1).
		Block("join").ALU(1).Ret().
		MustBuild()
	p := NewProgram()
	p.MustAdd(f)
	if err := p.Link(); err != nil {
		t.Fatal(err)
	}
	pl := p.Placement("f")
	if pl.fn != f {
		t.Fatal("placement does not carry its function")
	}
	if pl.entry == nil || pl.entry.b.Label != "entry" {
		t.Fatalf("entry not resolved: %+v", pl.entry)
	}
	for _, b := range f.Blocks {
		pb := pl.blocks[b.Label]
		if pb.fall != "" && (pb.fallThrough == nil || pb.fallThrough.b.Label != pb.fall) {
			t.Fatalf("%s: fall-through %q not resolved", b.Label, pb.fall)
		}
		switch b.Term.Kind {
		case TermJump:
			if pb.then == nil || pb.then.b.Label != b.Term.Then {
				t.Fatalf("%s: jump target %q not resolved", b.Label, b.Term.Then)
			}
		case TermCond:
			if pb.then == nil || pb.then.b.Label != b.Term.Then ||
				pb.els == nil || pb.els.b.Label != b.Term.Else {
				t.Fatalf("%s: branch targets not resolved", b.Label)
			}
		}
	}
}

// TestLinkDataFillsDataTable: after linking, every named operand must
// resolve through the program's data table to the address DataAddr
// reports, the engine must use it for unbound operands, and symbols must be
// laid out in name order whatever order they were interned in.
func TestLinkDataFillsDataTable(t *testing.T) {
	Intern("zz.linked.last") // interned before its alphabetical predecessors
	f := NewBuilder("f", ClassPath).
		Load("zz.linked.last", 1).Load("tbl", 3).Store("tbl", 1).Load("other", 1).
		Ret().
		MustBuild()
	p := NewProgram()
	p.MustAdd(f)
	if err := p.Link(); err != nil {
		t.Fatal(err)
	}
	e := newEngine(t, p)
	checked := 0
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.Data == NoSym {
				continue
			}
			want, ok := p.DataAddr(in.Data.String())
			if !ok {
				t.Fatalf("symbol %q not linked", in.Data)
			}
			if got := e.dataAddr(NewBinding(), in); got != want+uint64(in.Off) {
				t.Fatalf("operand %q+%d resolved to %#x, want %#x", in.Data, in.Off, got, want+uint64(in.Off))
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no named operands checked")
	}
	other, _ := p.DataAddr("other")
	tbl, _ := p.DataAddr("tbl")
	last, _ := p.DataAddr("zz.linked.last")
	if !(other < tbl && tbl < last) {
		t.Fatalf("data not in name order: other %#x, tbl %#x, zz.linked.last %#x", other, tbl, last)
	}
	if _, ok := p.DataAddr("never.referenced"); ok {
		t.Fatal("unreferenced symbol has a data address")
	}
}

// TestLayoutFingerprintDetectsChange: the audit hash must be stable across
// calls and sensitive to placement changes.
func TestLayoutFingerprintDetectsChange(t *testing.T) {
	build := func() *Program {
		f := NewBuilder("f", ClassPath).
			Block("a").ALU(2).
			Block("b").ALU(1).Ret().
			MustBuild()
		p := NewProgram()
		p.MustAdd(f)
		return p
	}
	p := build()
	if err := p.Link(); err != nil {
		t.Fatal(err)
	}
	fp := p.LayoutFingerprint()
	if fp != p.LayoutFingerprint() {
		t.Fatal("fingerprint not stable")
	}
	q := build()
	if _, err := q.PlaceSequential("f", DefaultTextBase+0x100, nil); err != nil {
		t.Fatal(err)
	}
	if err := q.FinishLayout(); err != nil {
		t.Fatal(err)
	}
	if q.LayoutFingerprint() == fp {
		t.Fatal("fingerprint blind to placement change")
	}

	// Executing the program must leave the fingerprint untouched.
	e := newEngine(t, build())
	if fp2 := e.Program().LayoutFingerprint(); fp2 != fp {
		t.Fatalf("identical builds disagree: %x vs %x", fp, fp2)
	}
	env := NewBinding()
	if err := e.Run("f", env); err != nil {
		t.Fatal(err)
	}
	if e.Program().LayoutFingerprint() != fp {
		t.Fatal("execution mutated the program")
	}
}
