package verify

import (
	"repro/internal/code"
)

// Reachable returns the set of labels of f reachable from its entry block
// by following terminator edges (calls are interprocedural and live in
// the CallGraph). Unknown successor labels (dangling targets) are ignored
// here; the well-formedness pass reports them separately.
func Reachable(f *code.Function) map[string]bool {
	reach := map[string]bool{}
	for i, ok := range reachable(f, labelIndex(f)) {
		if ok {
			reach[f.Blocks[i].Label] = true
		}
	}
	return reach
}

// labelIndex maps each block label of f to its index (the last one, for a
// duplicated label).
func labelIndex(f *code.Function) map[string]int {
	idx := make(map[string]int, len(f.Blocks))
	for i, b := range f.Blocks {
		idx[b.Label] = i
	}
	return idx
}

// reachable marks, by block index, the blocks of f reachable from its
// entry by terminator edges; index maps labels to block indices, and
// targets it does not know are ignored.
func reachable(f *code.Function, index map[string]int) []bool {
	reach := make([]bool, len(f.Blocks))
	if len(f.Blocks) == 0 {
		return reach
	}
	reach[0] = true
	work := []int{0}
	visit := func(label string) {
		if i, ok := index[label]; ok && !reach[i] {
			reach[i] = true
			work = append(work, i)
		}
	}
	for len(work) > 0 {
		b := f.Blocks[work[len(work)-1]]
		work = work[:len(work)-1]
		switch b.Term.Kind {
		case code.TermJump:
			visit(b.Term.Then)
		case code.TermCond:
			visit(b.Term.Then)
			visit(b.Term.Else)
		}
	}
	return reach
}

// CallGraph is the program's interprocedural call graph.
type CallGraph struct {
	// Callees maps a function name to the distinct functions it calls, in
	// first-call order.
	Callees map[string][]string
	order   []string
}

// ProgramCallGraph builds the call graph of every function in p. Call
// targets that do not resolve to a program function are kept as edges so
// callers can inspect them; the well-formedness pass rejects them first.
func ProgramCallGraph(p *code.Program) *CallGraph {
	g := &CallGraph{Callees: map[string][]string{}, order: p.Names()}
	for _, f := range p.Funcs() {
		g.Callees[f.Name] = f.Callees()
	}
	return g
}

// Cycle returns one cycle of the call graph as a function-name path
// (first element repeated at the end), or nil when the graph is acyclic.
// Detection order is deterministic: functions are tried in link order and
// callees in first-call order.
func (g *CallGraph) Cycle() []string {
	return findCycle(g.order, func(n string) []string { return g.Callees[n] })
}

// findCycle is the depth-first cycle search behind CallGraph.Cycle, over
// any node type: nodes are tried in order and successors in the order
// callees returns them.
func findCycle[N comparable](order []N, callees func(N) []N) []N {
	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := map[N]int{}
	var path []N
	var found []N
	var dfs func(n N) bool
	dfs = func(n N) bool {
		color[n] = grey
		path = append(path, n)
		for _, c := range callees(n) {
			switch color[c] {
			case grey:
				// Slice the cycle out of the current path.
				for i, x := range path {
					if x == c {
						found = append(append([]N(nil), path[i:]...), c)
						return true
					}
				}
			case white:
				if dfs(c) {
					return true
				}
			}
		}
		path = path[:len(path)-1]
		color[n] = black
		return false
	}
	for _, n := range order {
		if color[n] == white && dfs(n) {
			return found
		}
	}
	return nil
}
