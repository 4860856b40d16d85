package code

import (
	"sync"
	"sync/atomic"
)

// Sym is an interned name: a dense index into one process-wide,
// append-only table of data-symbol and function names. Instructions carry
// Syms instead of strings, so a linked program resolves operands and call
// targets by slice index rather than by hashing names, and an Instr stays
// small and pointer-free.
//
// IDs depend on the order names were first interned, which varies with
// package initialization and with which programs were built first (and,
// under the parallel runner, with goroutine scheduling). A Sym must
// therefore never decide an order, a hash or any printed output: anything
// sorted, fingerprinted or reported uses the name (Sym.String).
type Sym uint32

// NoSym is the empty name: no memory operand, or no call target.
const NoSym Sym = 0

// StackSym names the current thread stack ("$stack"). It is interned
// second, so it is a constant the engine can compare against; protocol
// hosts bind it to the stack of the running path invocation.
const StackSym Sym = 1

// stackName is the name StackSym interns. Binding keeps the stack's
// address in a field rather than its address table: every unnamed memory
// operand, the hottest engine path, resolves through it.
const stackName = "$stack"

// symTable is the process-wide intern table. Lookups of names already
// interned are lock-free (sync.Map); only the first sight of a name takes
// the mutex. names is published as a fresh slice header after every append,
// so Sym.String reads without locking: a reader's header never reaches the
// elements a later append writes. It is built by a variable initializer so
// that package-level Syms anywhere are interned after it exists.
var symTable = newSymTable()

type symTab struct {
	mu    sync.Mutex
	ids   sync.Map // string -> Sym
	names atomic.Pointer[[]string]
}

func newSymTable() *symTab {
	t := &symTab{}
	names := []string{"", stackName}
	t.names.Store(&names)
	t.ids.Store("", NoSym)
	t.ids.Store(stackName, StackSym)
	return t
}

// Intern returns the Sym for name, adding it to the table on first use.
// It is safe for concurrent use.
func Intern(name string) Sym {
	if s, ok := symTable.ids.Load(name); ok {
		return s.(Sym)
	}
	symTable.mu.Lock()
	defer symTable.mu.Unlock()
	if s, ok := symTable.ids.Load(name); ok {
		return s.(Sym)
	}
	names := append(*symTable.names.Load(), name)
	s := Sym(len(names) - 1)
	symTable.names.Store(&names)
	symTable.ids.Store(name, s)
	return s
}

// lookupSym returns the Sym of an already-interned name without adding
// it; ok is false when the name was never interned (so no program can
// refer to it).
func lookupSym(name string) (Sym, bool) {
	s, ok := symTable.ids.Load(name)
	if !ok {
		return NoSym, false
	}
	return s.(Sym), true
}

// String returns the interned name.
func (s Sym) String() string { return (*symTable.names.Load())[s] }

// SymCount returns the number of names interned so far, NoSym included;
// every Sym is below it.
func SymCount() int { return len(*symTable.names.Load()) }
