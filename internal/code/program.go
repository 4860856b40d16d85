package code

import (
	"cmp"
	"fmt"
	"hash/fnv"
	"slices"
	"sort"
	"strings"
)

// DefaultTextBase is where program text starts unless a layout says
// otherwise, and DefaultDataBase is where linker-assigned static data lives.
const (
	DefaultTextBase = 0x0010_0000
	DefaultDataBase = 0x0080_0000
	instrBytes      = 4
)

// Segment is a run of contiguously packed blocks starting at Addr. A
// function is placed as one or more segments; the common case is a single
// segment holding all blocks, but cloning places a clone's mainline far away
// from the cold blocks it shares with the original.
type Segment struct {
	Addr   uint64
	Labels []string
}

// Placement is the computed layout of one function.
type Placement struct {
	Segments []Segment
	blocks   map[string]*placedBlock
	// placed holds the placed blocks in segment order; blocks indexes it.
	placed []placedBlock
	// fn is the function this placement lays out, and entry its placed
	// entry block — resolved once at Place time so the engine's call path
	// is one slice load per invocation.
	fn    *Function
	entry *placedBlock
	end   uint64
}

type placedBlock struct {
	b    *Block
	addr uint64
	// fall is the label of the physically following block within the
	// same segment ("" at segment end).
	fall string
	// size is the block's static instruction count including the
	// materialized terminator.
	size int
	// fallThrough, then and els are the placed successors, resolved at
	// Place time so the engine's block-transition loop chases pointers
	// instead of hashing labels. fallThrough is nil at segment end; then
	// and els are nil for kinds that do not use them.
	fallThrough *placedBlock
	then, els   *placedBlock
}

// End returns the first address past the placement's highest segment.
func (p *Placement) End() uint64 { return p.end }

// BlockAddr returns the placed address of the named block.
func (p *Placement) BlockAddr(label string) (uint64, bool) {
	pb, ok := p.blocks[label]
	if !ok {
		return 0, false
	}
	return pb.addr, true
}

// BlockSize returns the placed static size (in instructions, terminator
// included) of the named block.
func (p *Placement) BlockSize(label string) (int, bool) {
	pb, ok := p.blocks[label]
	if !ok {
		return 0, false
	}
	return pb.size, true
}

// termStaticSize returns the instruction count the terminator occupies given
// the physically-following label.
func termStaticSize(f *Function, b *Block, fall string) int {
	switch b.Term.Kind {
	case TermJump:
		if b.Term.Then == fall {
			return 0
		}
		return 1
	case TermCond:
		if b.Term.Then == fall || b.Term.Else == fall {
			return 1
		}
		return 2
	case TermRet:
		return len(f.Epilogue) + 1
	}
	return 0
}

// Program is a set of functions plus their placement and static data
// addresses: the linked image the engine executes against. Functions,
// placements and data addresses are all indexed by the interned Sym of the
// name, so the engine's call and operand paths are slice loads.
type Program struct {
	funcs      []*Function
	order      []Sym
	placements []*Placement
	// data holds the linker-assigned static storage of every data symbol
	// the program references; a zero addr means none was assigned.
	data     []dataSlot
	textBase uint64
	textEnd  uint64
}

type dataSlot struct {
	addr uint64
	size uint32
}

// NewProgram returns an empty program.
func NewProgram() *Program {
	return &Program{textBase: DefaultTextBase}
}

// grow extends the Sym-indexed function and placement tables to cover s.
func (p *Program) grow(s Sym) {
	if int(s) < len(p.funcs) {
		return
	}
	n := max(int(s)+1, SymCount())
	p.funcs = append(p.funcs, make([]*Function, n-len(p.funcs))...)
	p.placements = append(p.placements, make([]*Placement, n-len(p.placements))...)
}

// lookup returns the Sym of a function name the program defines.
func (p *Program) lookup(name string) (Sym, bool) {
	s, ok := lookupSym(name)
	if !ok || int(s) >= len(p.funcs) || p.funcs[s] == nil {
		return NoSym, false
	}
	return s, true
}

// Add registers a function; the link order is the Add order unless SetOrder
// overrides it. Adding a duplicate name is an error.
func (p *Program) Add(fs ...*Function) error {
	for _, f := range fs {
		if _, dup := p.lookup(f.Name); dup {
			return fmt.Errorf("code: duplicate function %q", f.Name)
		}
		if err := f.Validate(); err != nil {
			return err
		}
		s := Intern(f.Name)
		p.grow(s)
		p.funcs[s] = f
		p.order = append(p.order, s)
	}
	return nil
}

// MustAdd is Add for statically-known inputs.
func (p *Program) MustAdd(fs ...*Function) {
	if err := p.Add(fs...); err != nil {
		panic(err)
	}
}

// Func returns the named function, or nil.
func (p *Program) Func(name string) *Function {
	if s, ok := p.lookup(name); ok {
		return p.funcs[s]
	}
	return nil
}

// FuncSym returns the function named by s, or nil.
func (p *Program) FuncSym(s Sym) *Function {
	if int(s) < len(p.funcs) {
		return p.funcs[s]
	}
	return nil
}

// Funcs returns the functions in link order.
func (p *Program) Funcs() []*Function {
	out := make([]*Function, 0, len(p.order))
	for _, s := range p.order {
		out = append(out, p.funcs[s])
	}
	return out
}

// Names returns the link order.
func (p *Program) Names() []string {
	out := make([]string, len(p.order))
	for i, s := range p.order {
		out[i] = s.String()
	}
	return out
}

// SetOrder replaces the link order; every existing function must appear
// exactly once.
func (p *Program) SetOrder(names []string) error {
	if len(names) != len(p.order) {
		return fmt.Errorf("code: SetOrder got %d names, program has %d functions", len(names), len(p.order))
	}
	order := make([]Sym, len(names))
	for i, n := range names {
		s, ok := p.lookup(n)
		if !ok {
			return fmt.Errorf("code: SetOrder: unknown function %q", n)
		}
		if slices.Contains(order[:i], s) {
			return fmt.Errorf("code: SetOrder: duplicate function %q", n)
		}
		order[i] = s
	}
	p.order = order
	return nil
}

// Clone deep-copies the program's functions and order. Placement and data
// addresses are not copied; the clone must be re-linked. The functions
// were validated when they were added, so their copies are not validated
// again.
func (p *Program) Clone() *Program {
	np := &Program{
		funcs:      make([]*Function, len(p.funcs)),
		order:      slices.Clone(p.order),
		placements: make([]*Placement, len(p.placements)),
		textBase:   p.textBase,
	}
	for _, s := range p.order {
		f := p.funcs[s]
		np.funcs[s] = f.Clone(f.Name)
	}
	return np
}

// Remove deletes a function from the program (used when path-inlining
// replaces a set of path functions with one merged function).
func (p *Program) Remove(name string) {
	s, ok := p.lookup(name)
	if !ok {
		return
	}
	p.funcs[s] = nil
	p.placements[s] = nil
	if i := slices.Index(p.order, s); i >= 0 {
		p.order = slices.Delete(p.order, i, i+1)
	}
}

// Place installs a custom placement for one function. Every block must be
// covered exactly once across the segments, and segments must not overlap
// other placements (overlap checking happens in Link/FinishLayout).
func (p *Program) Place(name string, segs []Segment) error {
	s, ok := p.lookup(name)
	if !ok {
		return fmt.Errorf("code: Place: unknown function %q", name)
	}
	return p.place(s, segs)
}

func (p *Program) place(sym Sym, segs []Segment) error {
	f := p.funcs[sym]
	name := f.Name
	pl := &Placement{Segments: segs, blocks: make(map[string]*placedBlock, len(f.Blocks)), fn: f}
	// One array holds every placed block; a label placed twice or unknown
	// fails before it could outgrow it.
	pl.placed = make([]placedBlock, 0, len(f.Blocks))
	next := 0 // where to resume the label search: segments usually follow source order
	for _, s := range segs {
		addr := s.Addr
		for i, l := range s.Labels {
			b := f.blockFrom(l, &next)
			if b == nil {
				return fmt.Errorf("code: Place %s: unknown block %q", name, l)
			}
			if pl.blocks[l] != nil {
				return fmt.Errorf("code: Place %s: block %q placed twice", name, l)
			}
			fall := ""
			if i+1 < len(s.Labels) {
				fall = s.Labels[i+1]
			}
			size := len(b.Instrs) + termStaticSize(f, b, fall)
			pl.placed = append(pl.placed, placedBlock{b: b, addr: addr, fall: fall, size: size})
			pl.blocks[l] = &pl.placed[len(pl.placed)-1]
			addr += uint64(size * instrBytes)
		}
		if addr > pl.end {
			pl.end = addr
		}
	}
	if len(pl.placed) != len(f.Blocks) {
		return fmt.Errorf("code: Place %s: %d of %d blocks placed", name, len(pl.placed), len(f.Blocks))
	}
	// Resolve successor labels to placed-block pointers so execution never
	// consults the label map again.
	for i := range pl.placed {
		pb := &pl.placed[i]
		if pb.fall != "" {
			pb.fallThrough = pl.blocks[pb.fall]
		}
		switch pb.b.Term.Kind {
		case TermJump:
			pb.then = pl.blocks[pb.b.Term.Then]
		case TermCond:
			pb.then = pl.blocks[pb.b.Term.Then]
			pb.els = pl.blocks[pb.b.Term.Else]
		}
	}
	pl.entry = pl.blocks[f.Blocks[0].Label]
	p.placements[sym] = pl
	return nil
}

// PlaceSequential places the function as a single segment at addr with
// blocks in the given order (source order if order is nil) and returns the
// first free address after it.
func (p *Program) PlaceSequential(name string, addr uint64, order []string) (uint64, error) {
	s, ok := p.lookup(name)
	if !ok {
		return 0, fmt.Errorf("code: PlaceSequential: unknown function %q", name)
	}
	return p.placeSequential(s, addr, order)
}

func (p *Program) placeSequential(s Sym, addr uint64, order []string) (uint64, error) {
	if order == nil {
		order = AllLabels(p.funcs[s])
	}
	if err := p.place(s, []Segment{{Addr: addr, Labels: order}}); err != nil {
		return 0, err
	}
	return p.placements[s].end, nil
}

// Link places every function sequentially in link order starting at the text
// base, then assigns static data addresses. This models the untuned "order
// of the object files" layout that version STD starts from.
func (p *Program) Link() error {
	addr := p.textBase
	for _, n := range p.order {
		end, err := p.placeSequential(n, addr, nil)
		if err != nil {
			return err
		}
		addr = end
	}
	p.textEnd = addr
	return p.LinkData()
}

// FinishLayout is called after custom Place calls to verify coverage and
// overlap, compute the text end, and assign data addresses.
func (p *Program) FinishLayout() error {
	type span struct {
		lo, hi uint64
		name   Sym
	}
	var spans []span
	end := p.textBase
	for _, n := range p.order {
		pl := p.placements[n]
		if pl == nil {
			return fmt.Errorf("code: FinishLayout: function %q not placed", n)
		}
		for _, pb := range pl.placed {
			if pb.size == 0 {
				continue
			}
			spans = append(spans, span{pb.addr, pb.addr + uint64(pb.size*instrBytes), n})
		}
		if pl.end > end {
			end = pl.end
		}
	}
	slices.SortFunc(spans, func(a, b span) int { return cmp.Compare(a.lo, b.lo) })
	for i := 1; i < len(spans); i++ {
		if spans[i].lo < spans[i-1].hi {
			return fmt.Errorf("code: FinishLayout: %s at %#x overlaps %s ending at %#x",
				spans[i].name, spans[i].lo, spans[i-1].name, spans[i-1].hi)
		}
	}
	p.textEnd = end
	return p.LinkData()
}

// TextBase returns the base address of program text.
func (p *Program) TextBase() uint64 { return p.textBase }

// SetTextBase changes where Link starts placing text (must precede linking).
func (p *Program) SetTextBase(addr uint64) { p.textBase = addr }

// TextEnd returns the first address past all placed code.
func (p *Program) TextEnd() uint64 { return p.textEnd }

// Placement returns the layout of the named function, or nil.
func (p *Program) Placement(name string) *Placement {
	if s, ok := p.lookup(name); ok {
		return p.placements[s]
	}
	return nil
}

// EntryAddr returns the placed address of the function's entry block.
func (p *Program) EntryAddr(name string) (uint64, bool) {
	pl := p.Placement(name)
	if pl == nil {
		return 0, false
	}
	return pl.entry.addr, true
}

// LinkData assigns addresses to every static data symbol referenced by any
// instruction, filling the program's Sym-indexed data table. Symbols are
// sized by the largest offset the builders emitted (rounded up to a cache
// block) and assigned in name order, so the data layout is independent of
// authoring and interning order. The "$stack" symbol is skipped: it is
// always bound at run time to the current thread's stack.
func (p *Program) LinkData() error {
	data := make([]dataSlot, SymCount())
	var syms []Sym
	note := func(instrs []Instr) {
		for i := range instrs {
			in := &instrs[i]
			if in.Data == NoSym || in.Data == StackSym {
				continue
			}
			d := &data[in.Data]
			if d.size == 0 {
				syms = append(syms, in.Data)
			}
			d.size = max(d.size, in.Off+8)
		}
	}
	for _, s := range p.order {
		f := p.funcs[s]
		for _, b := range f.Blocks {
			note(b.Instrs)
		}
		note(f.Epilogue)
	}
	slices.SortFunc(syms, func(a, b Sym) int { return strings.Compare(a.String(), b.String()) })
	addr := uint64(DefaultDataBase)
	for _, s := range syms {
		d := &data[s]
		d.size = (d.size + 63) &^ 63
		d.addr = addr
		addr += uint64(d.size)
	}
	p.data = data
	return nil
}

// DataAddr returns the linker-assigned address of a static symbol.
func (p *Program) DataAddr(name string) (uint64, bool) {
	s, ok := lookupSym(name)
	if !ok || int(s) >= len(p.data) || p.data[s].addr == 0 {
		return 0, false
	}
	return p.data[s].addr, true
}

// LayoutFingerprint hashes everything the engine consults at run time: the
// link order, every function's blocks (labels, kinds, instruction streams,
// terminators, epilogue), every placed block's address, size and physical
// fall-through, and the static data assignment. Two calls on an untouched
// program return the same value, so tests use it to prove that programs are
// never mutated after linking — the invariant that lets the experiment
// runner share one linked image across hosts and concurrent samples.
func (p *Program) LayoutFingerprint() uint64 {
	h := fnv.New64a()
	hashInstr := func(in *Instr) {
		fmt.Fprintf(h, "i%d,%s,%d,%s,%t,%t;", in.Op, in.Data, in.Off, in.Call, in.CallLoad, in.Prologue)
	}
	for _, n := range p.order {
		f := p.funcs[n]
		fmt.Fprintf(h, "f%s,%d:", n, f.Class)
		for _, b := range f.Blocks {
			fmt.Fprintf(h, "b%s,%d,%d,%s,%s,%s:", b.Label, b.Kind, b.Term.Kind, b.Term.Cond, b.Term.Then, b.Term.Else)
			for i := range b.Instrs {
				hashInstr(&b.Instrs[i])
			}
		}
		for i := range f.Epilogue {
			hashInstr(&f.Epilogue[i])
		}
		if pl := p.placements[n]; pl != nil {
			fmt.Fprintf(h, "p%d:", pl.end)
			for _, b := range f.Blocks {
				if pb := pl.blocks[b.Label]; pb != nil {
					fmt.Fprintf(h, "@%s,%d,%d,%s;", b.Label, pb.addr, pb.size, pb.fall)
				}
			}
		}
	}
	var syms []Sym
	for s, d := range p.data {
		if d.addr != 0 {
			syms = append(syms, Sym(s))
		}
	}
	slices.SortFunc(syms, func(a, b Sym) int { return strings.Compare(a.String(), b.String()) })
	for _, s := range syms {
		fmt.Fprintf(h, "d%s,%d,%d;", s, p.data[s].addr, p.data[s].size)
	}
	fmt.Fprintf(h, "t%d,%d", p.textBase, p.textEnd)
	return h.Sum64()
}

// TextSpan describes one placed basic block of the linked image: its
// address range, the function owning it, the function's bipartite-layout
// class, and the block's outlining kind. The observability layer uses the
// span list to resolve a faulting instruction address back to the function
// and layout partition responsible for it.
type TextSpan struct {
	// Start and End bound the block: Start inclusive, End exclusive.
	Start, End uint64
	// Func is the owning function's name.
	Func string
	// Class is the owning function's bipartite classification.
	Class Class
	// Kind is the block's outlining kind (mainline vs cold code).
	Kind BlockKind
}

// TextMap returns every placed block as a span, sorted by start address.
// Zero-sized blocks (empty blocks whose terminator fell through) are
// omitted. The program must be linked.
func (p *Program) TextMap() []TextSpan {
	var spans []TextSpan
	for _, n := range p.order {
		f, pl := p.funcs[n], p.placements[n]
		if pl == nil {
			continue
		}
		for _, b := range f.Blocks {
			pb := pl.blocks[b.Label]
			if pb == nil || pb.size == 0 {
				continue
			}
			spans = append(spans, TextSpan{
				Start: pb.addr,
				End:   pb.addr + uint64(pb.size*instrBytes),
				Func:  f.Name,
				Class: f.Class,
				Kind:  b.Kind,
			})
		}
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	return spans
}

// StaticInstrs sums the body instruction counts of all functions.
func (p *Program) StaticInstrs() int {
	n := 0
	for _, s := range p.order {
		n += p.funcs[s].StaticInstrs()
	}
	return n
}
