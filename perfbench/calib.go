package main

import (
	"errors"
	"fmt"
	"io"
	"net"
	"time"
)

// The host this benchmark runs on is a few cores of a shared machine, and
// its speed drifts with what the machine's other tenants run: on a 2-vCPU
// Xeon guest the same code ran up to 2.5× slower from one minute to the
// next. A fixed kernel, run before and after every set-up and between the
// roughly 1-second slices of the timed phase, reads that speed, and each
// set-up and each slice is divided by the mean of the readings on either
// side of it, so the times a run reports are in reference-host time rather
// than in whatever the host happened to give that second. The kernel runs
// none of the repository's code, so a change to the program moves the
// timed work and not the clock it is read against; each run records every
// reading, so its wall-clock times can be recovered.
//
// There are two kernels, one per resource the workloads' operations wait
// on: a dependent-load walk for the simulator's computation (sweep,
// optimize), and a loopback TCP ping-pong for the daemon's requests
// (serve). Over eight 20-second serve runs the ping-pong cut the spread of
// the request rate from 17% to 6%, the walk only to 12%.

const (
	// calibRing is the pointer-chase ring in entries: 256 KB, beyond a
	// private L1 and about the size of the simulator's own state.
	calibRing = 1 << 16
	// calibSteps is one burst's length, about 2 ms.
	calibSteps = 1 << 18
	// calibBursts is how many bursts one reading averages (about 15 ms).
	calibBursts = 8
	// calibRefNS is one burst's time on the reference host (an idle
	// 2-vCPU Intel Xeon guest); a reading of 1 means the host runs at
	// that speed.
	calibRefNS = 1.5e6

	// pingBytes and pings size one ping-pong reading: 1000 round trips
	// of 1 KB, some 15 ms.
	pingBytes = 1024
	pings     = 1000
	// pingRefNS is one round trip's time on the reference host.
	pingRefNS = 15e3
)

// hostClock reads the host's current speed. It allocates its buffers once,
// so a reading leaves the heap metrics alone.
type hostClock struct {
	ring []uint32
	// The ping-pong kernel's two ends and its buffer; nil for the walk.
	conn, echo net.Conn
	buf        []byte
	echoed     chan struct{}
	// readings holds every reading so far.
	readings []float64
}

// newHostClock returns the walk kernel, or with network the ping-pong
// kernel on a loopback connection of its own.
func newHostClock(network bool) (*hostClock, error) {
	if network {
		return newPingClock()
	}
	// Sattolo's shuffle makes one cycle through every entry, so the chase
	// cannot settle into a short, cached loop.
	r := make([]uint32, calibRing)
	for j := range r {
		r[j] = uint32(j)
	}
	state := uint64(0x9e3779b97f4a7c15)
	for j := len(r) - 1; j > 0; j-- {
		state = splitmix(state)
		k := int(state % uint64(j))
		r[j], r[k] = r[k], r[j]
	}
	return &hostClock{ring: r}, nil
}

func newPingClock() (*hostClock, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			c = nil
		}
		accepted <- c
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		ln.Close()
		<-accepted
		return nil, err
	}
	echo := <-accepted
	if echo == nil {
		conn.Close()
		return nil, errors.New("ping clock: accept failed")
	}
	c := &hostClock{conn: conn, echo: echo, buf: make([]byte, pingBytes), echoed: make(chan struct{})}
	go func() {
		defer close(c.echoed)
		b := make([]byte, pingBytes)
		for {
			if _, err := io.ReadFull(echo, b); err != nil {
				return
			}
			if _, err := echo.Write(b); err != nil {
				return
			}
		}
	}()
	return c, nil
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// chase walks a ring with dependent loads, integer mixing and a
// data-dependent branch: the mix of work the simulator itself does.
func chase(r []uint32, steps int) uint64 {
	var h uint64
	i := uint32(0)
	for n := 0; n < steps; n++ {
		i = r[i]
		h = h*0x100000001b3 ^ uint64(i)
		if h&4 != 0 {
			h += uint64(n)
		}
	}
	return h
}

// calibSink keeps the walk's result live.
var calibSink uint64

// read takes one reading of the host's slowness against the reference:
// the kernel's time over its reference time.
func (c *hostClock) read() error {
	t0 := time.Now()
	if c.conn == nil {
		for b := 0; b < calibBursts; b++ {
			calibSink += chase(c.ring, calibSteps)
		}
		c.readings = append(c.readings, float64(time.Since(t0))/calibBursts/calibRefNS)
		return nil
	}
	for i := 0; i < pings; i++ {
		if _, err := c.conn.Write(c.buf); err != nil {
			return fmt.Errorf("ping clock: %w", err)
		}
		if _, err := io.ReadFull(c.conn, c.buf); err != nil {
			return fmt.Errorf("ping clock: %w", err)
		}
	}
	c.readings = append(c.readings, float64(time.Since(t0))/pings/pingRefNS)
	return nil
}

// slowness is the median reading so far.
func (c *hostClock) slowness() float64 { return median(c.readings) }

// close ends the ping-pong kernel's connection and waits for its echo.
func (c *hostClock) close() {
	if c.conn == nil {
		return
	}
	c.conn.Close()
	c.echo.Close()
	<-c.echoed
}
