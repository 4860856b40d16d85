package code

import "slices"

// Binding binds a code model's symbolic names to run-time protocol state:
// condition values, closures and queued loop counts by name, and the base
// addresses of data objects by Sym. The engine consults it for every
// conditional branch and for the base address of every named memory
// operand; this is how the functional Go protocol implementations drive the
// modeled instruction stream.
//
// A Binding is recycled across simulated events: Reset starts a new
// generation instead of clearing anything, and an entry counts only when
// it was written in the current generation. So resetting costs nothing per
// bound name, and the count queues, address slots and map entries of one
// event are reused by the next.
type Binding struct {
	conds map[string]*condEntry
	// addrs is indexed by Sym; a slot is bound when its gen is the
	// binding's current gen.
	addrs []addrSlot
	gen   uint32

	stack    uint64
	hasStack bool
}

// condEntry is one condition binding. A queued count pushed this
// generation is consulted first and shadows any value or closure for the
// name, even once exhausted (the historical lookup order); otherwise a
// closure or a constant set this generation decides.
type condEntry struct {
	queue *countQueue
	fn    func() bool
	val   bool
	// qgen and vgen are the generations the queue and the value/closure
	// were last written in.
	qgen, vgen uint32
}

type addrSlot struct {
	addr uint64
	gen  uint32
}

// NewBinding returns an empty binding.
func NewBinding() *Binding {
	return &Binding{conds: map[string]*condEntry{}, gen: 1}
}

// Reset empties the binding in place for the next event. The per-event
// environment rebuild runs once per simulated event, so it must not
// allocate: the map entries, count queues and address table stay, and the
// generation bump retires what they held.
func (b *Binding) Reset() {
	b.gen++
	if b.gen == 0 {
		// Wrapped: a stale stamp could alias the new generation.
		clear(b.conds)
		clear(b.addrs)
		b.gen = 1
	}
	b.stack = 0
	b.hasStack = false
}

// entry returns the named condition's entry, creating it on first use.
func (b *Binding) entry(name string) *condEntry {
	if b.gen == 0 {
		b.gen = 1
	}
	e := b.conds[name]
	if e == nil {
		if b.conds == nil {
			b.conds = map[string]*condEntry{}
		}
		e = &condEntry{}
		b.conds[name] = e
	}
	return e
}

// Set fixes the named condition to a constant. A queued count for the same
// name keeps shadowing it, as it always has.
func (b *Binding) Set(name string, v bool) *Binding {
	e := b.entry(name)
	e.val, e.fn, e.vgen = v, nil, b.gen
	return b
}

// SetFunc binds the named condition to a closure evaluated on each query;
// use it to read live protocol state. A queued count for the same name
// keeps shadowing it, as it always has.
func (b *Binding) SetFunc(name string, f func() bool) *Binding {
	e := b.entry(name)
	if e.vgen != b.gen {
		e.val = false
	}
	e.fn, e.vgen = f, b.gen
	return b
}

// Bind fixes the base address of the data object s.
func (b *Binding) Bind(s Sym, addr uint64) *Binding {
	if s == StackSym {
		b.stack = addr
		b.hasStack = true
		return b
	}
	if b.gen == 0 {
		b.gen = 1
	}
	if int(s) >= len(b.addrs) {
		b.addrs = slices.Grow(b.addrs, max(int(s)+1, SymCount())-len(b.addrs))
		b.addrs = b.addrs[:cap(b.addrs)]
	}
	b.addrs[s] = addrSlot{addr: addr, gen: b.gen}
	return b
}

// PushCount queues one execution of a counted do-while loop guarded by the
// named condition: the condition will read true n-1 times and then false, so
// the loop body runs n times (n must be >= 1; the model should guard
// zero-trip loops with a separate condition). Counts queue in FIFO order, so
// a caller invoking the same library model several times pushes one count
// per invocation, in call order.
func (b *Binding) PushCount(name string, n int) *Binding {
	e := b.entry(name)
	if e.queue == nil {
		e.queue = &countQueue{}
	}
	if e.qgen != b.gen {
		e.queue.vals, e.queue.head = e.queue.vals[:0], 0
		e.qgen = b.gen
	}
	if n < 1 {
		n = 1
	}
	e.queue.vals = append(e.queue.vals, n-1)
	return b
}

// Counter returns a self-re-arming loop condition: each time the guarded
// do-while loop is entered, n() is evaluated against live protocol state and
// the condition then reads true n()-1 times and false once, so the body runs
// n() times. Bind it with SetFunc. Unlike PushCount it needs no per-call
// queuing, which makes it the right tool for conditions registered once at
// stack-construction time.
func Counter(n func() int) func() bool {
	remaining := -1
	return func() bool {
		if remaining < 0 {
			remaining = n() - 1
			if remaining < 0 {
				remaining = 0
			}
		}
		if remaining > 0 {
			remaining--
			return true
		}
		remaining = -1
		return false
	}
}

// countQueue is a FIFO of remaining loop counts. Popping advances head
// rather than reslicing, so truncating at the next generation keeps the
// whole backing array.
type countQueue struct {
	vals []int
	head int
}

// next returns true while the current count has iterations left, consuming
// one; when it reaches zero the count is popped and false returned.
func (q *countQueue) next() bool {
	if q.head == len(q.vals) {
		return false
	}
	if q.vals[q.head] > 0 {
		q.vals[q.head]--
		return true
	}
	q.head++
	return false
}

// Cond returns the outcome of the named condition. Unknown names evaluate
// to false by convention, so models are authored with the exceptional
// outcome on the "true" side only where a binding exists.
func (b *Binding) Cond(name string) bool {
	e := b.conds[name]
	switch {
	case e == nil:
		return false
	case e.qgen == b.gen:
		return e.queue.next()
	case e.vgen != b.gen:
		return false
	case e.fn != nil:
		return e.fn()
	}
	return e.val
}

// Addr resolves the data object s to its bound base address. When ok is
// false the engine falls back to linker-assigned static storage.
func (b *Binding) Addr(s Sym) (base uint64, ok bool) {
	if s == StackSym {
		return b.stack, b.hasStack
	}
	if int(s) < len(b.addrs) && b.addrs[s].gen == b.gen {
		return b.addrs[s].addr, true
	}
	return 0, false
}
