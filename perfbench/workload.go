package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/machines"
	"repro/internal/verify"
)

// workload is one named input mix. setup builds everything from cold and
// is run several times (set-up time is reported as the median); warm runs
// the workload once untimed so lazy state is filled before measuring;
// begin marks the start of a timed phase; measure drives the workload
// until the deadline, and is called once per slice of the phase.
type workload interface {
	setup(last bool) error
	warm() error
	begin()
	measure(deadline time.Time, tr *tracer) *phase
	// layer reports the workload's own per-layer counts for its most
	// recent phase (zero for layers it does not exercise).
	layer() map[string]float64
	close()
}

// phase is what one timed phase produced. Latencies are in milliseconds.
// A hit is an operation answered from memoized state (a cached program
// image, or a stored document); a compute builds that state from scratch.
// A call is one of the workload's unit operations: a core.Run on sweep, an
// optimize.Run on optimize, a request on serve.
type phase struct {
	// elapsed is the timed part of the phase; a workload that does
	// untimed checking after its deadline sets it, otherwise the whole
	// measure call counts.
	elapsed            time.Duration
	work               float64
	hit, compute, call []float64
	attempted          int
	failed             int
	heapPeak           uint64
	// Simulated results of the phase's outputs; deterministic.
	paperErrPct, optTpUS float64
}

// add appends one slice's operations to the phase; the simulated results
// are the latest slice's.
func (p *phase) add(s *phase) {
	p.elapsed += s.elapsed
	p.work += s.work
	p.hit = append(p.hit, s.hit...)
	p.compute = append(p.compute, s.compute...)
	p.call = append(p.call, s.call...)
	p.attempted += s.attempted
	p.failed += s.failed
	p.paperErrPct, p.optTpUS = s.paperErrPct, s.optTpUS
}

// scale converts the phase's wall-clock times to reference-host time by
// dividing them by the host's slowness.
func (p *phase) scale(slowness float64) {
	p.elapsed = time.Duration(float64(p.elapsed) / slowness)
	for _, xs := range [][]float64{p.hit, p.compute, p.call} {
		for i := range xs {
			xs[i] /= slowness
		}
	}
}

// record adds one timed operation.
func (p *phase) record(hit, call bool, d time.Duration, ok bool) {
	ms := float64(d) / float64(time.Millisecond)
	if call {
		p.call = append(p.call, ms)
	}
	if hit {
		p.hit = append(p.hit, ms)
	} else {
		p.compute = append(p.compute, ms)
	}
	p.attempted++
	if !ok {
		p.failed++
	}
}

// cellKey names one Table-4 configuration.
type cellKey struct {
	stack   core.StackKind
	version core.Version
}

func sortedCellKeys[V any](m map[cellKey]V) []cellKey {
	keys := make([]cellKey, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].stack != keys[j].stack {
			return keys[i].stack < keys[j].stack
		}
		return keys[i].version < keys[j].version
	})
	return keys
}

var stacks = []core.StackKind{core.StackTCPIP, core.StackRPC}

// model resolves a machine-matrix name; the names used here are fixed.
func model(name string) machines.Model {
	m, err := machines.ByName(name)
	if err != nil {
		panic(err)
	}
	return m
}

// image names one program image a workload runs.
type image struct {
	stack   core.StackKind
	version core.Version
	machine arch.Machine
}

// coldBuild builds, links and verifies every image from scratch,
// bypassing the program cache.
func coldBuild(imgs []image, tr *tracer) error {
	for _, im := range imgs {
		cfg := core.DefaultConfig(im.stack, im.version)
		id := tr.start("core.BuildProgramUncached", "", 0)
		p, err := core.BuildProgramUncached(im.stack, im.version, cfg.Feat, cfg.Strategy, im.machine)
		tr.stop(id)
		if err != nil {
			return fmt.Errorf("build %v/%v: %w", im.stack, im.version, err)
		}
		id = tr.start("verify.Program", "", 0)
		err = verify.Program(p, im.machine)
		tr.stop(id)
		if err != nil {
			return fmt.Errorf("verify %v/%v: %w", im.stack, im.version, err)
		}
	}
	return nil
}

// heapSampler records the live heap while a phase runs. The heap peaks
// once per GC cycle, and a single largest peak depends on where a
// collection happened to fall, so the reported peak is the median over
// fixed windows of each window's largest reading.
type heapSampler struct {
	stop  chan struct{}
	done  sync.WaitGroup
	peaks []float64
}

const (
	heapMetric = "/memory/classes/heap/objects:bytes"
	heapWindow = 500 * time.Millisecond
)

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.done.Add(1)
	go func() {
		defer h.done.Done()
		s := []metrics.Sample{{Name: heapMetric}}
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		var peak uint64
		windowEnd := time.Now().Add(heapWindow)
		for {
			metrics.Read(s)
			peak = max(peak, s[0].Value.Uint64())
			select {
			case <-h.stop:
				h.peaks = append(h.peaks, float64(peak))
				return
			case now := <-tick.C:
				if now.After(windowEnd) {
					h.peaks = append(h.peaks, float64(peak))
					peak, windowEnd = 0, now.Add(heapWindow)
				}
			}
		}
	}()
	return h
}

// finish stops the sampler and returns the median window peak in bytes.
func (h *heapSampler) finish() uint64 {
	close(h.stop)
	h.done.Wait()
	return uint64(median(h.peaks))
}

// runtimeCounters snapshots the Go runtime counters the go.* metrics use.
type runtimeCounters struct {
	allocBytes, allocs, gcCycles uint64
	gcCPU, totalCPU              float64
}

func readRuntime() runtimeCounters {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return runtimeCounters{
		allocBytes: s[0].Value.Uint64(),
		allocs:     s[1].Value.Uint64(),
		gcCycles:   s[2].Value.Uint64(),
		gcCPU:      s[3].Value.Float64(),
		totalCPU:   s[4].Value.Float64(),
	}
}

// sliceDur is how long the workload runs between two readings of the host
// clock; a reading costs about 1.5% of that.
const sliceDur = time.Second

// measurePhase runs one timed phase with the heap sampler around it, in
// slices with a host clock reading before, between and after them. Each
// slice's times are divided by the mean of the readings on either side of
// it, so a second in which the host ran slow does not read as a slower
// program. A collection first gives every phase the same starting heap.
func measurePhase(w workload, d time.Duration, tr *tracer, clk *hostClock) (*phase, error) {
	runtime.GC()
	h := startHeapSampler()
	w.begin()
	p := &phase{}
	end := time.Now().Add(d)
	if err := clk.read(); err != nil {
		h.finish()
		return nil, err
	}
	for start := time.Now(); start.Before(end); start = time.Now() {
		deadline := start.Add(sliceDur)
		if deadline.After(end) {
			deadline = end
		}
		s := w.measure(deadline, tr)
		if s.elapsed == 0 {
			s.elapsed = time.Since(start)
		}
		if err := clk.read(); err != nil {
			h.finish()
			return nil, err
		}
		n := len(clk.readings)
		s.scale((clk.readings[n-2] + clk.readings[n-1]) / 2)
		p.add(s)
	}
	p.heapPeak = h.finish()
	return p, nil
}
