// Package verify is the static-analysis layer over the internal/code IR:
// it machine-checks every linked program the way a linker checks a real
// binary, proves the layout transformations semantics-preserving without
// running them, and predicts i-cache conflicts from placed addresses alone.
//
// Three passes:
//
//   - Well-formedness (Program): per-function CFG invariants (dangling
//     labels, invalid terminators, unreachable mainline blocks), an
//     interprocedural call graph (unresolved targets, recursion the
//     engine's bounded call stack cannot run), and placement invariants
//     (every block placed exactly once, segments packed contiguously,
//     instruction-aligned, non-overlapping). The experiment builder runs
//     this on every program it links, so a malformed layout fails fast
//     with a typed *VerifyError instead of a wrong trace or an engine
//     nil-dereference.
//
//   - Transform equivalence (CheckOutline, CheckClone, CheckInline): a
//     static sibling of the dynamic trace-comparison tests. Outlining may
//     only reorder blocks; cloning's specialization may only drop the
//     first prologue instruction per block and address loads of calls
//     inside the cloned set; path-inlining must be path-equivalent to the
//     callee chain it replaced, proven by bisimulation.
//
//   - Layout lint (Lint): map placed addresses through the arch.Machine
//     cache geometry and replay the latency path's static block-reference
//     sequence through a per-set model, predicting the replacement misses
//     a steady-state path invocation will suffer — before any simulation
//     runs.
package verify

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"repro/internal/arch"
	"repro/internal/code"
)

// Reason classifies a VerifyError; each constant is one distinct invariant
// the verifier enforces.
type Reason string

// Well-formedness reasons (the Program pass).
const (
	// ReasonNoBlocks flags a function with an empty block list.
	ReasonNoBlocks Reason = "no-blocks"
	// ReasonDuplicateLabel flags two blocks of one function sharing a label.
	ReasonDuplicateLabel Reason = "duplicate-label"
	// ReasonDanglingLabel flags a terminator targeting a label the
	// function does not define — the engine would resolve it to a nil
	// placed block and crash.
	ReasonDanglingLabel Reason = "dangling-label"
	// ReasonBadTerminator flags an invalid terminator kind or a
	// conditional branch with an empty condition name.
	ReasonBadTerminator Reason = "bad-terminator"
	// ReasonUnreachable flags a mainline block with no CFG path from the
	// entry. Outlinable blocks (error/init/unrolled) may be statically
	// dead: the models deliberately keep BSD-style error stubs with no
	// in-edges for their i-cache footprint.
	ReasonUnreachable Reason = "unreachable-block"
	// ReasonUnresolvedCall flags a call instruction naming a function the
	// program does not contain.
	ReasonUnresolvedCall Reason = "unresolved-call"
	// ReasonRecursion flags a cycle in the call graph; the engine's call
	// stack is bounded and the inliner would diverge on it.
	ReasonRecursion Reason = "recursive-call"
	// ReasonUnplacedFunc flags a function with no placement.
	ReasonUnplacedFunc Reason = "unplaced-function"
	// ReasonUnplacedBlock flags a block missing from its function's
	// placement (e.g. a block appended after Place ran).
	ReasonUnplacedBlock Reason = "unplaced-block"
	// ReasonStalePlacement flags a placement naming a block the function
	// no longer has (e.g. a block dropped after Place ran).
	ReasonStalePlacement Reason = "stale-placement"
	// ReasonMisaligned flags a placed address that is not a multiple of
	// the instruction size.
	ReasonMisaligned Reason = "misaligned-address"
	// ReasonSegmentEscape flags a block whose placed address or size
	// disagrees with the contiguous packing of its segment — the block
	// has escaped the address range its segment claims.
	ReasonSegmentEscape Reason = "segment-escape"
	// ReasonOverlap flags two placed blocks whose address ranges
	// intersect.
	ReasonOverlap Reason = "overlapping-placement"
)

// Transform-equivalence reasons (CheckOutline/CheckClone/CheckInline).
const (
	// ReasonFuncSetChanged flags a transformation that added or removed a
	// function it had no license to touch.
	ReasonFuncSetChanged Reason = "function-set-changed"
	// ReasonBlockSetChanged flags a block added or dropped by a
	// transformation that may only move blocks.
	ReasonBlockSetChanged Reason = "block-set-changed"
	// ReasonBlockChanged flags a block whose body, kind, or terminator
	// was altered by a move-only transformation.
	ReasonBlockChanged Reason = "block-changed"
	// ReasonOrderViolation flags outlining output that is not the hot
	// blocks (in original order) followed by the cold blocks (in original
	// order).
	ReasonOrderViolation Reason = "outline-order"
	// ReasonIllegalDrop flags a specialized clone that removed an
	// instruction specialization has no license to remove.
	ReasonIllegalDrop Reason = "illegal-drop"
	// ReasonPathDivergence flags a path-inlined function that is not
	// path-equivalent to the callee chain it replaced.
	ReasonPathDivergence Reason = "path-divergence"
)

// VerifyError is the typed failure of any verify pass: which invariant
// broke (Reason), where (Func/Block), and how (Detail).
type VerifyError struct {
	// Reason is the invariant that failed.
	Reason Reason
	// Func is the offending function's name.
	Func string
	// Block is the offending block's label ("" when the failure is not
	// tied to one block).
	Block string
	// Detail elaborates in prose.
	Detail string
}

// Error implements error.
func (e *VerifyError) Error() string {
	loc := e.Func
	if e.Block != "" {
		loc += "." + e.Block
	}
	s := fmt.Sprintf("verify: %s: %s", e.Reason, loc)
	if e.Detail != "" {
		s += ": " + e.Detail
	}
	return s
}

func errf(r Reason, fn, block, format string, args ...any) *VerifyError {
	return &VerifyError{Reason: r, Func: fn, Block: block, Detail: fmt.Sprintf(format, args...)}
}

// Program runs the full well-formedness pass over a linked program: CFG
// invariants for every function, the interprocedural call graph, and the
// placement invariants. It returns nil or the first *VerifyError found, in
// deterministic (link, then source) order.
func Program(p *code.Program, m arch.Machine) error {
	for _, f := range p.Funcs() {
		if err := checkFunc(f); err != nil {
			return err
		}
	}
	if err := checkCallGraph(p); err != nil {
		return err
	}
	return checkPlacement(p, m)
}

// checkFunc verifies one function's CFG: structure, terminator targets,
// and reachability of mainline blocks.
func checkFunc(f *code.Function) error {
	if len(f.Blocks) == 0 {
		return errf(ReasonNoBlocks, f.Name, "", "function has no blocks")
	}
	labels := make(map[string]int, len(f.Blocks))
	for i, b := range f.Blocks {
		if _, dup := labels[b.Label]; dup {
			return errf(ReasonDuplicateLabel, f.Name, b.Label, "label defined twice")
		}
		labels[b.Label] = i
	}
	known := func(l string) bool { _, ok := labels[l]; return ok }
	for _, b := range f.Blocks {
		switch b.Term.Kind {
		case code.TermJump:
			if !known(b.Term.Then) {
				return errf(ReasonDanglingLabel, f.Name, b.Label, "jump to unknown label %q", b.Term.Then)
			}
		case code.TermCond:
			if b.Term.Cond == "" {
				return errf(ReasonBadTerminator, f.Name, b.Label, "conditional branch with empty condition")
			}
			if !known(b.Term.Then) {
				return errf(ReasonDanglingLabel, f.Name, b.Label, "branch to unknown label %q", b.Term.Then)
			}
			if !known(b.Term.Else) {
				return errf(ReasonDanglingLabel, f.Name, b.Label, "branch to unknown label %q", b.Term.Else)
			}
		case code.TermRet:
		default:
			return errf(ReasonBadTerminator, f.Name, b.Label, "invalid terminator kind %d", b.Term.Kind)
		}
	}
	reach := reachable(f, labels)
	for i, b := range f.Blocks {
		if !reach[i] && !b.Kind.Outlinable() {
			return errf(ReasonUnreachable, f.Name, b.Label, "mainline block has no path from entry %q", f.Blocks[0].Label)
		}
	}
	return nil
}

// checkCallGraph verifies every call target resolves and the call graph is
// acyclic (the engine's call stack is depth-bounded, so recursion is a
// model bug, not a feature).
func checkCallGraph(p *code.Program) error {
	funcs := p.Funcs()
	order := make([]code.Sym, len(funcs))
	callees := make(map[code.Sym][]code.Sym, len(funcs))
	for i, f := range funcs {
		s := code.Intern(f.Name)
		order[i] = s
		var out []code.Sym
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Call == code.NoSym || slices.Contains(out, in.Call) {
					continue
				}
				if p.FuncSym(in.Call) == nil {
					return errf(ReasonUnresolvedCall, f.Name, b.Label, "call to unknown function %q", in.Call)
				}
				out = append(out, in.Call)
			}
		}
		callees[s] = out
	}
	if cyc := findCycle(order, func(s code.Sym) []code.Sym { return callees[s] }); cyc != nil {
		names := make([]string, len(cyc))
		for i, s := range cyc {
			names[i] = s.String()
		}
		return errf(ReasonRecursion, names[0], "", "call cycle %v", names)
	}
	return nil
}

// checkPlacement verifies the layout of every function: all blocks placed
// exactly once, segment packing contiguous and instruction-aligned, block
// sizes consistent with the bodies they claim to hold, and no two placed
// blocks overlapping anywhere in the image.
func checkPlacement(p *code.Program, m arch.Machine) error {
	ib := uint64(m.InstrBytes)
	type span struct {
		lo, hi uint64
		fn, bl string
	}
	var spans []span
	for _, f := range p.Funcs() {
		pl := p.Placement(f.Name)
		if pl == nil {
			return errf(ReasonUnplacedFunc, f.Name, "", "function has no placement")
		}
		index := labelIndex(f)
		placed := make([]bool, len(f.Blocks))
		for _, seg := range pl.Segments {
			if seg.Addr%ib != 0 {
				return errf(ReasonMisaligned, f.Name, "", "segment at %#x not %d-byte aligned", seg.Addr, ib)
			}
			addr := seg.Addr
			for i, l := range seg.Labels {
				bi, ok := index[l]
				if !ok {
					return errf(ReasonStalePlacement, f.Name, l, "placement names a block the function no longer has")
				}
				if placed[bi] {
					return errf(ReasonStalePlacement, f.Name, l, "block placed twice")
				}
				placed[bi] = true
				b := f.Blocks[bi]
				got, size, err := pl.BlockSpan(l)
				if err != nil {
					return errf(ReasonUnplacedBlock, f.Name, l, "segment lists the block but the placement lost it")
				}
				fall := ""
				if i+1 < len(seg.Labels) {
					fall = seg.Labels[i+1]
				}
				want := len(b.Instrs) + termSize(f, b, fall)
				if size != want {
					return errf(ReasonSegmentEscape, f.Name, l,
						"placed size %d instrs, body requires %d (block mutated after placement?)", size, want)
				}
				if got != addr {
					return errf(ReasonSegmentEscape, f.Name, l,
						"placed at %#x but contiguous packing puts it at %#x", got, addr)
				}
				if got%ib != 0 {
					return errf(ReasonMisaligned, f.Name, l, "block at %#x not %d-byte aligned", got, ib)
				}
				if size > 0 {
					spans = append(spans, span{got, got + uint64(size)*ib, f.Name, l})
				}
				addr += uint64(want) * ib
			}
		}
		for i, b := range f.Blocks {
			if !placed[i] {
				return errf(ReasonUnplacedBlock, f.Name, b.Label, "block missing from every segment")
			}
		}
	}
	// Ties sort by function then block for deterministic error messages on
	// exact-duplicate placements.
	slices.SortFunc(spans, func(a, b span) int {
		return cmp.Or(cmp.Compare(a.lo, b.lo), strings.Compare(a.fn, b.fn), strings.Compare(a.bl, b.bl))
	})
	for i := 1; i < len(spans); i++ {
		if spans[i].lo < spans[i-1].hi {
			return errf(ReasonOverlap, spans[i].fn, spans[i].bl,
				"[%#x,%#x) overlaps %s.%s ending at %#x",
				spans[i].lo, spans[i].hi, spans[i-1].fn, spans[i-1].bl, spans[i-1].hi)
		}
	}
	return nil
}

// termSize recomputes the instruction count a terminator materializes to,
// given the physically-following label — an independent reimplementation
// of the placement logic, so a drifted placement cannot vouch for itself.
func termSize(f *code.Function, b *code.Block, fall string) int {
	switch b.Term.Kind {
	case code.TermJump:
		if b.Term.Then == fall {
			return 0
		}
		return 1
	case code.TermCond:
		if b.Term.Then == fall || b.Term.Else == fall {
			return 1
		}
		return 2
	case code.TermRet:
		return len(f.Epilogue) + 1
	}
	return 0
}
