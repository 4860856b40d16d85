package main

import (
	"bytes"
	"math"
	"runtime/pprof"
	"testing"
	"time"
)

func TestGroupOf(t *testing.T) {
	cases := []struct {
		stack []string
		want  string
	}{
		{[]string{"repro/internal/sim/mem.(*Hierarchy).FetchInstr", "repro/internal/sim/cpu.(*CPU).Step"}, "sim_mem"},
		{[]string{"runtime.mapaccess2_faststr", "repro/internal/code.(*Engine).call"}, "runtime_map"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime_gc"},
		{[]string{"runtime.memmove", "runtime.gcAssistAlloc", "runtime.mallocgc", "repro/internal/code.(*Program).LinkData"}, "runtime_gc"},
		{[]string{"encoding/json.appendCompact", "repro/internal/soak.LoadEnvelopeFS", "repro/internal/serve.(*Store).Get"}, "soak"},
		{[]string{"internal/runtime/syscall.Syscall6", "syscall.read", "internal/poll.(*FD).Read", "net.(*conn).Read", "net/http.(*conn).serve"}, "net_http"},
		{[]string{"runtime.futex", "runtime.findRunnable", "runtime.schedule"}, "other"},
		{nil, "other"},
	}
	for _, c := range cases {
		if got := groupOf(c.stack); got != c.want {
			t.Errorf("%v: got %s, want %s", c.stack, got, c.want)
		}
	}
}

var spinSink float64

// A real profile of this process decodes, and its shares sum to one.
func TestCPUSharesDecodeARealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiler busy:", err)
	}
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			spinSink += math.Sqrt(float64(i))
		}
	}
	pprof.StopCPUProfile()
	shares, err := cpuShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, g := range cpuGroups {
		v, ok := shares["cpu."+g]
		if !ok {
			t.Fatalf("no share for %s", g)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("shares sum to %g", sum)
	}
	// The spin loop runs in this package, which no layer claims.
	if shares["cpu.other"] < 0.5 {
		t.Fatalf("spin loop not attributed to other: %v", shares)
	}
}
