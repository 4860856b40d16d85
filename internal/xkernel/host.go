package xkernel

import (
	"repro/internal/code"
	"repro/internal/sim/cpu"
	"repro/internal/sim/mem"
)

// Host bundles the per-machine simulation state every protocol needs: the
// CPU/memory simulator, the code-model engine, the allocator, the thread
// manager, and the global event queue. It also carries the plumbing that
// connects functional protocol execution to the modeled instruction stream:
// per-event condition environments and the inlined-path switches.
type Host struct {
	Name    string
	CPU     *cpu.CPU
	Mem     *mem.Hierarchy
	Engine  *code.Engine
	Alloc   *Allocator
	Threads *ThreadMgr
	Queue   *EventQueue
	Graph   *Graph

	// epochStart is the CPU cycle count when the current event handler
	// started; Elapsed measures handler processing time for scheduling.
	epochStart uint64

	// Env is the live condition environment. Protocols register EnvHooks
	// at stack-construction time; BeginEvent runs them so that every
	// model executed during the event finds its conditions and counts
	// bound to current protocol state.
	Env      *code.Binding
	EnvHooks []func(env *code.Binding)

	// CurrentFrame is the raw frame being processed by the current
	// input event, available to condition closures.
	CurrentFrame []byte

	// CurrentStack is the virtual address of the stack the current path
	// invocation runs on; bound to "$stack" in model environments.
	CurrentStack uint64

	// ModelSelector, when set, rewrites model names before execution —
	// the hook per-connection cloning uses to route an event to the
	// clone specialized for its connection.
	ModelSelector func(name string) string
}

// NewHost assembles a host around a machine simulator and a shared queue.
// engine may be nil for purely functional tests.
func NewHost(name string, c *cpu.CPU, h *mem.Hierarchy, engine *code.Engine, q *EventQueue, perturb uint64) *Host {
	return &Host{
		Name:    name,
		CPU:     c,
		Mem:     h,
		Engine:  engine,
		Alloc:   NewAllocator(perturb),
		Threads: NewThreadMgr(),
		Queue:   q,
		Graph:   NewGraph(),
	}
}

// BeginEvent marks the start of an event handler: the processing-time epoch
// is reset and the condition environment rebuilt from the registered hooks.
// The Binding object is recycled across events (nothing retains it past the
// event — every handler starts here and rebuilds it from the hooks), which
// keeps the per-event hot path free of map allocation.
func (h *Host) BeginEvent(frame []byte) {
	if h.CPU != nil {
		h.epochStart = h.CPU.Now()
	}
	h.CurrentFrame = frame
	if h.Env == nil {
		h.Env = code.NewBinding()
	} else {
		h.Env.Reset()
	}
	if h.CurrentStack != 0 {
		h.Env.Bind(code.StackSym, h.CurrentStack)
	}
	for _, hook := range h.EnvHooks {
		hook(h.Env)
	}
}

// Elapsed returns the CPU cycles consumed since BeginEvent; events scheduled
// from inside a handler are delayed by this much so virtual time reflects
// processing cost.
func (h *Host) Elapsed() uint64 {
	if h.CPU == nil {
		return 0
	}
	return h.CPU.Now() - h.epochStart
}

// ScheduleAfterProcessing schedules fn at now + elapsed handler time +
// extra cycles.
func (h *Host) ScheduleAfterProcessing(extra uint64, fn func()) *TimerEvent {
	return h.Queue.Schedule(h.Elapsed()+extra, fn)
}

// RunModel executes the named code model under the current event
// environment; with a nil engine (purely functional tests) it is a no-op.
func (h *Host) RunModel(name string) {
	if h.Engine == nil {
		return
	}
	if h.ModelSelector != nil {
		name = h.ModelSelector(name)
	}
	env := h.Env
	if env == nil {
		env = code.NewBinding()
	}
	h.Engine.MustRun(name, env)
}

// SetStack records the current invocation stack and rebinds "$stack".
func (h *Host) SetStack(addr uint64) {
	h.CurrentStack = addr
	if h.Env != nil {
		h.Env.Bind(code.StackSym, addr)
	}
}
