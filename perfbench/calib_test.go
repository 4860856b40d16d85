package main

import (
	"testing"
	"time"
)

// TestHostClockRing checks that the walk's ring is one cycle through
// every entry, so the walk never settles into a short loop.
func TestHostClockRing(t *testing.T) {
	c, err := newHostClock(false)
	if err != nil {
		t.Fatal(err)
	}
	r := c.ring
	seen := make([]bool, len(r))
	i := uint32(0)
	for n := 0; n < len(r); n++ {
		if seen[i] {
			t.Fatalf("entry %d revisited after %d steps", i, n)
		}
		seen[i] = true
		i = r[i]
	}
	if i != 0 {
		t.Fatalf("walk of %d steps ended at %d, want 0", len(r), i)
	}
}

// TestHostClockReadings takes readings with both kernels and checks that
// the ping-pong kernel shuts its connection down.
func TestHostClockReadings(t *testing.T) {
	for _, network := range []bool{false, true} {
		c, err := newHostClock(network)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if err := c.read(); err != nil {
				t.Fatal(err)
			}
		}
		c.close()
		if len(c.readings) != 3 || c.slowness() <= 0 {
			t.Fatalf("network=%v: readings %v", network, c.readings)
		}
		if network {
			if err := c.read(); err == nil {
				t.Fatal("reading after close succeeded")
			}
		}
	}
}

// TestPhaseScale checks the conversion to reference-host time and the
// merging of slices.
func TestPhaseScale(t *testing.T) {
	p := &phase{}
	a := &phase{elapsed: 2 * time.Second, work: 10, hit: []float64{4}, call: []float64{4, 8}, compute: []float64{8}, attempted: 2}
	a.scale(2)
	p.add(a)
	b := &phase{elapsed: time.Second, work: 5, hit: []float64{3}, call: []float64{3}, attempted: 1, failed: 1}
	b.scale(1)
	p.add(b)
	if p.elapsed != 2*time.Second || p.work != 15 || p.attempted != 3 || p.failed != 1 {
		t.Fatalf("merged phase %+v", p)
	}
	want := []float64{2, 4, 3}
	for i, x := range want {
		if p.call[i] != x {
			t.Fatalf("calls %v, want %v", p.call, want)
		}
	}
	if p.hit[0] != 2 || p.hit[1] != 3 || p.compute[0] != 4 {
		t.Fatalf("hits %v computes %v", p.hit, p.compute)
	}
}
