package verify

import (
	"slices"
	"sort"

	"repro/internal/arch"
	"repro/internal/code"
)

// CostSpec parameterizes the static layout cost engine: the latency path to
// walk (PathSpec) plus the edge-frequency model that turns each predicted
// replacement miss into a weighted cost. The zero frequency model (nil
// FuncWeights, zero LoopWeight) weighs every function equally and every
// loop level at DefaultLoopWeight, so Cost degenerates to the lint's plain
// miss count — a tested invariant.
type CostSpec struct {
	PathSpec
	// FuncWeights scales each function's reference frequency — how many
	// times per roundtrip its path blocks are fetched. Functions absent
	// from the map (or the whole map when nil) weigh 1. Seed it from a
	// dynamic profile via optimize.WeightsFromProfile, or from the
	// invocation-count hints the micro-positioning layout already uses.
	FuncWeights map[string]float64
	// LoopWeight multiplies a block's weight once per loop-nesting level,
	// estimated from the CFG's back edges (a terminator targeting an
	// earlier block of the same function). 0 selects DefaultLoopWeight.
	LoopWeight float64
}

// DefaultLoopWeight is the per-nesting-level frequency multiplier used when
// CostSpec.LoopWeight is zero: a loop body is assumed to run this many
// times per entry, the classic static-profile heuristic.
const DefaultLoopWeight = 8

// FuncCost attributes a share of the predicted cost to one function: the
// replacement misses of its own blocks (the refetches it suffers, not the
// evictions it causes).
type FuncCost struct {
	// Func is the function whose block was refetched.
	Func string
	// ReplMisses counts its predicted replacement misses.
	ReplMisses int
	// Cost is the frequency-weighted sum of those misses.
	Cost float64
}

// PairCost attributes predicted cost to one (victim, evictor) conflict
// pair: Victim's block was evicted by a fetch from Evictor and had to be
// fetched again. The pair list names exactly which co-placements a layout
// change would have to separate.
type PairCost struct {
	// Victim is the function whose block was refetched.
	Victim string
	// Evictor is the function whose fetch evicted it.
	Evictor string
	// ReplMisses counts the pair's predicted replacement misses.
	ReplMisses int
	// Cost is the frequency-weighted sum of those misses.
	Cost float64
}

// CostReport is the cost engine's verdict on one placed program: the lint's
// miss-count Report plus the frequency-weighted total and its per-function
// and per-conflict-pair attribution.
type CostReport struct {
	Report
	// Total is the frequency-weighted predicted replacement cost of one
	// path traversal — the search objective the layout optimizer
	// minimises. With uniform weights and a loop-free path it equals
	// float64(PredictedRepl).
	Total float64
	// VictimRescued counts predicted replacement misses whose block was
	// still resident in the machine's victim buffer; they stay in
	// PredictedRepl (the simulator counts them as misses too) but are
	// discounted in Total by the victim-hit/board-cache latency ratio.
	VictimRescued int
	// ByFunc ranks the per-function cost attribution, worst first.
	ByFunc []FuncCost
	// Pairs ranks the per-conflict-pair attribution, worst first.
	Pairs []PairCost
}

// costRef is one static i-cache block reference with its estimated fetch
// frequency.
type costRef struct {
	blk uint64
	fn  int32
	w   float64
}

// maxLoopDepth caps the estimated loop-nesting depth: the frequency model
// multiplies by LoopWeight per level, so an unbounded estimate on a wild
// CFG would blow the objective up instead of ranking layouts.
const maxLoopDepth = 3

// loopDepths estimates each block's loop-nesting depth from the function's
// CFG: every terminator targeting an earlier (or the same) block in
// f.Blocks order closes a loop whose body is the index range between target
// and source, and a block's depth is the number of such distinct-head
// ranges covering it, capped at maxLoopDepth. Only edges between hot
// blocks count: a genuine loop has a hot head and a hot latch, while the
// outlined cold blocks re-outlining appends after the mainline jump *back*
// into it to resume — exactly the shape that would read as a huge false
// loop. The heuristic is exact for the builder's reducible counted loops
// and conservative for anything wilder.
func loopDepths(f *code.Function) []int {
	idx := labelIndex(f)
	// Widest range per head, so parallel latches of one loop do not stack.
	latch := map[int]int{}
	back := func(from int, label string) {
		if label == "" {
			return
		}
		to, ok := idx[label]
		if !ok || to > from || f.Blocks[to].Kind.Outlinable() {
			return
		}
		if cur, ok := latch[to]; !ok || from > cur {
			latch[to] = from
		}
	}
	for i, b := range f.Blocks {
		if b.Kind.Outlinable() {
			continue
		}
		switch b.Term.Kind {
		case code.TermJump:
			back(i, b.Term.Then)
		case code.TermCond:
			back(i, b.Term.Then)
			back(i, b.Term.Else)
		}
	}
	depth := make([]int, len(f.Blocks))
	for to, from := range latch {
		for i := to; i <= from; i++ {
			if depth[i] < maxLoopDepth {
				depth[i]++
			}
		}
	}
	return depth
}

// Cost predicts the frequency-weighted i-cache replacement cost of the
// latency path through p on machine m, from placed addresses alone. It is
// the lint's static replay — the same block-reference expansion, per-set
// LRU model and miss taxonomy (see Lint) — promoted to a whole-program cost
// engine: every reference carries an estimated fetch frequency (per-function
// weights x a loop-nesting multiplier from the CFG's back edges), the
// machine's victim buffer discounts the misses it would absorb, and every
// predicted replacement miss is attributed to the function that suffered it
// and to the (victim, evictor) pair whose co-placement caused it. The
// program must already be placed and linked; Cost does not verify it (run
// Program first).
func Cost(p *code.Program, spec CostSpec, m arch.Machine) (*CostReport, error) {
	g := NewGeometry(m)
	ib := uint64(m.InstrBytes)
	loopW := spec.LoopWeight
	if loopW == 0 {
		loopW = DefaultLoopWeight
	}
	fnWeight := func(name string) float64 {
		if spec.FuncWeights == nil {
			return 1
		}
		if w, ok := spec.FuncWeights[name]; ok && w > 0 {
			return w
		}
		return 1
	}

	inLibrary := make(map[code.Sym]bool, len(spec.Library))
	for _, n := range spec.Library {
		inLibrary[code.Intern(n)] = true
	}

	// Expand the static reference sequence. Hot blocks only: the engine
	// models the fast path, and outlined error blocks are exactly the code
	// the path does not fetch. Calls from one path function to the next are
	// not expanded — the path list already orders them — but calls into
	// library helpers are, at the call site, because that is where their
	// blocks are fetched; after each expanded call the caller's block is
	// fetched again, because execution returns into its middle. That
	// return-site refetch is the reference an aliasing layout turns into a
	// replacement miss.
	var refs []costRef
	// funcs holds each function the expansion reaches, in first-reach
	// order; a costRef names its function by index into it. A library
	// helper is expanded at every call site, so its placement lookup and
	// loop-depth estimate are computed once per Cost call.
	type expFunc struct {
		name   string
		f      *code.Function
		pl     *code.Placement
		depths []int
	}
	var funcs []expFunc
	funcIdx := map[string]int32{}
	var expand func(name string, depth int, callerW float64) error
	expand = func(name string, depth int, callerW float64) error {
		if depth > maxLintDepth {
			return errf(ReasonRecursion, name, "", "library expansion exceeds depth %d", maxLintDepth)
		}
		id, ok := funcIdx[name]
		if !ok {
			f := p.Func(name)
			if f == nil {
				return errf(ReasonUnresolvedCall, name, "", "path spec names unknown function")
			}
			pl := p.Placement(name)
			if pl == nil {
				return errf(ReasonUnplacedFunc, name, "", "path function has no placement")
			}
			id = int32(len(funcs))
			funcIdx[name] = id
			funcs = append(funcs, expFunc{name: name, f: f, pl: pl, depths: loopDepths(f)})
		}
		ef := funcs[id]
		base := callerW * fnWeight(name)
		for i, b := range ef.f.Blocks {
			if b.Kind.Outlinable() {
				continue
			}
			w := base
			for d := 0; d < ef.depths[i]; d++ {
				w *= loopW
			}
			addr, size, err := ef.pl.BlockSpan(b.Label)
			if err != nil {
				return err
			}
			// The cache blocks [first, first+n) the placed block spans.
			var first, n uint64
			if size > 0 {
				first = g.BlockNumber(addr)
				n = g.BlockNumber(addr+uint64(size)*ib-1) - first + 1
			}
			emit := func() {
				for bn := first; bn < first+n; bn++ {
					refs = append(refs, costRef{blk: bn, fn: id, w: w})
				}
			}
			emit()
			for _, in := range b.Instrs {
				if in.Call == code.NoSym || in.CallLoad || !inLibrary[in.Call] {
					continue
				}
				if err := expand(in.Call.String(), depth+1, w); err != nil {
					return err
				}
				emit()
			}
		}
		return nil
	}
	for _, name := range spec.Path {
		if err := expand(name, 0, 1); err != nil {
			return nil, err
		}
	}

	rep := &CostReport{}

	// Number the distinct path blocks densely in first-reference order, so
	// every per-block and per-set table below is a slice.
	blockIdx := make(map[uint64]int32, len(refs)/2)
	refBlock := make([]int32, len(refs))
	setBlockCount := make([]int, g.Sets)
	setFuncs := make([][]int32, g.Sets) // functions sharing each set, first-reference order
	for k, r := range refs {
		bi, ok := blockIdx[r.blk]
		if !ok {
			bi = int32(len(blockIdx))
			blockIdx[r.blk] = bi
			setBlockCount[r.blk&g.setMask]++
		}
		refBlock[k] = bi
		if s := r.blk & g.setMask; !slices.Contains(setFuncs[s], r.fn) {
			setFuncs[s] = append(setFuncs[s], r.fn)
		}
	}
	rep.PathBlocks = len(blockIdx)

	// The victim buffer absorbs part of a replacement miss's latency: a
	// refetch that hits the buffer costs VictimHitCycles instead of the
	// board-cache fill. It still counts in PredictedRepl — the simulator
	// counts it as a miss too — but its weight in Total is discounted by
	// the latency ratio.
	victimDiscount := 1.0
	if m.VictimEntries > 0 && m.BCacheHitCycles > 0 {
		victimDiscount = float64(m.VictimHitCycles) / float64(m.BCacheHitCycles)
	}
	var victimFIFO []uint64
	victimHolds := func(blk uint64) bool {
		for _, v := range victimFIFO {
			if v == blk {
				return true
			}
		}
		return false
	}
	victimPush := func(blk uint64) {
		if m.VictimEntries <= 0 {
			return
		}
		victimFIFO = append(victimFIFO, blk)
		if len(victimFIFO) > m.VictimEntries {
			victimFIFO = victimFIFO[1:]
		}
	}

	// One traversal through the per-set LRU model, with the simulator's
	// replacement policy (MRU at index 0) and its miss taxonomy: the first
	// miss on a block is its cold fetch, a later miss on the same block is
	// a replacement miss — the block was evicted by a conflicting one and
	// had to be fetched again. Eviction records the evictor's function so a
	// later refetch can name the conflict pair it pays for. The ways of
	// set s are ways[s*Assoc : s*Assoc+wayLen[s]].
	ways := make([]uint64, g.Sets*g.Assoc)
	wayLen := make([]int, g.Sets)
	seen := make([]bool, len(blockIdx))
	evictedBy := make([]int32, len(blockIdx)) // evictor's function + 1; 0 = never evicted
	replBySet := make([]int, g.Sets)
	funcAgg := map[int32]*FuncCost{}
	pairAgg := map[[2]int32]*PairCost{}
	for k, r := range refs {
		s := int(r.blk & g.setMask)
		w := ways[s*g.Assoc : s*g.Assoc+wayLen[s]]
		hit := -1
		for i, bn := range w {
			if bn == r.blk {
				hit = i
				break
			}
		}
		if hit >= 0 {
			copy(w[1:hit+1], w[:hit])
			w[0] = r.blk
			continue
		}
		bi := refBlock[k]
		if seen[bi] {
			rep.PredictedRepl++
			replBySet[s]++
			cost := r.w
			if victimHolds(r.blk) {
				rep.VictimRescued++
				cost *= victimDiscount
			}
			rep.Total += cost
			fc := funcAgg[r.fn]
			if fc == nil {
				fc = &FuncCost{Func: funcs[r.fn].name}
				funcAgg[r.fn] = fc
			}
			fc.ReplMisses++
			fc.Cost += cost
			if ev := evictedBy[bi]; ev != 0 {
				key := [2]int32{r.fn, ev - 1}
				pc := pairAgg[key]
				if pc == nil {
					pc = &PairCost{Victim: funcs[r.fn].name, Evictor: funcs[ev-1].name}
					pairAgg[key] = pc
				}
				pc.ReplMisses++
				pc.Cost += cost
			}
		}
		seen[bi] = true
		if len(w) < g.Assoc {
			wayLen[s]++
			w = w[:len(w)+1]
		} else {
			victim := w[len(w)-1]
			evictedBy[blockIdx[victim]] = r.fn + 1
			victimPush(victim)
		}
		copy(w[1:], w)
		w[0] = r.blk
	}

	// Partition violations: a set holding hot code of both classes.
	for _, fns := range setFuncs {
		var hasPath, hasLib bool
		for _, fn := range fns {
			if funcs[fn].f.Class == code.ClassLibrary {
				hasLib = true
			} else {
				hasPath = true
			}
		}
		if hasPath && hasLib {
			rep.PartitionViolations++
		}
	}

	// Hot/cold interleave: walk every spec'd function's blocks in placed
	// address order and count kind transitions beyond the single hot→cold
	// boundary a clean outlining leaves.
	type placedKind struct {
		addr uint64
		cold bool
	}
	var order []placedKind
	for _, name := range append(append([]string(nil), spec.Path...), spec.Library...) {
		f := p.Func(name)
		if f == nil {
			continue
		}
		pl := p.Placement(name)
		if pl == nil {
			return nil, errf(ReasonUnplacedFunc, name, "", "path function has no placement")
		}
		for _, b := range f.Blocks {
			addr, size, err := pl.BlockSpan(b.Label)
			if err != nil {
				return nil, err
			}
			if size == 0 {
				continue
			}
			order = append(order, placedKind{addr: addr, cold: b.Kind.Outlinable()})
		}
	}
	sort.Slice(order, func(i, j int) bool { return order[i].addr < order[j].addr })
	flips := 0
	for i := 1; i < len(order); i++ {
		if order[i].cold != order[i-1].cold {
			flips++
		}
	}
	if flips > 1 {
		rep.HotColdInterleave = flips - 1
	}

	// Conflict list, worst set first.
	for s, n := range replBySet {
		if n == 0 {
			continue
		}
		fns := make([]string, len(setFuncs[s]))
		for i, fn := range setFuncs[s] {
			fns[i] = funcs[fn].name
		}
		sort.Strings(fns)
		rep.Conflicts = append(rep.Conflicts, SetConflict{
			Set:        s,
			Blocks:     setBlockCount[s],
			ReplMisses: n,
			Funcs:      fns,
		})
	}
	sort.Slice(rep.Conflicts, func(i, j int) bool {
		a, b := rep.Conflicts[i], rep.Conflicts[j]
		if a.ReplMisses != b.ReplMisses {
			return a.ReplMisses > b.ReplMisses
		}
		return a.Set < b.Set
	})

	// Attribution lists, worst first; name-ordered on ties so the report is
	// deterministic.
	for _, fc := range funcAgg {
		rep.ByFunc = append(rep.ByFunc, *fc)
	}
	sort.Slice(rep.ByFunc, func(i, j int) bool {
		a, b := rep.ByFunc[i], rep.ByFunc[j]
		if a.Cost != b.Cost {
			return a.Cost > b.Cost
		}
		return a.Func < b.Func
	})
	for _, pc := range pairAgg {
		rep.Pairs = append(rep.Pairs, *pc)
	}
	sort.Slice(rep.Pairs, func(i, j int) bool {
		a, b := rep.Pairs[i], rep.Pairs[j]
		if a.Cost != b.Cost {
			return a.Cost > b.Cost
		}
		if a.Victim != b.Victim {
			return a.Victim < b.Victim
		}
		return a.Evictor < b.Evictor
	})
	return rep, nil
}
