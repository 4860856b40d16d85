package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"strings"
)

// The CPU profile is decoded here rather than with `go tool pprof`: the
// format is a gzipped protocol buffer, and the few fields the layer split
// needs (samples, locations, functions, strings) take a page to read.

// cpuGroups are the per-layer CPU-share metrics, in report order. Every
// profile sample lands in exactly one, so the shares sum to 1.
var cpuGroups = []string{
	"code", "sim_cpu", "sim_mem", "xkernel", "protocols", "core",
	"layout", "verify", "optimize", "soak", "obs", "serve", "storage",
	"net_http", "runtime_map", "runtime_gc", "other",
}

// pkgGroups maps a frame's package prefix to its layer group. The
// protocol graph's leaves (wire, the simulated link, the LANCE driver and
// the fault injector) count as protocols.
var pkgGroups = []struct{ prefix, group string }{
	{"repro/internal/code.", "code"},
	{"repro/internal/sim/cpu.", "sim_cpu"},
	{"repro/internal/sim/mem.", "sim_mem"},
	{"repro/internal/xkernel.", "xkernel"},
	{"repro/internal/protocols/", "protocols"},
	{"repro/internal/netsim.", "protocols"},
	{"repro/internal/lance.", "protocols"},
	{"repro/internal/faults.", "protocols"},
	{"repro/internal/core.", "core"},
	{"repro/internal/layout.", "layout"},
	{"repro/internal/verify.", "verify"},
	{"repro/internal/optimize.", "optimize"},
	{"repro/internal/soak.", "soak"},
	{"repro/internal/obs.", "obs"},
	{"repro/internal/serve.", "serve"},
	{"repro/internal/storage.", "storage"},
	{"net/http.", "net_http"},
	{"net.", "net_http"},
	{"internal/runtime/maps.", "runtime_map"},
}

// gcRoots are the runtime functions under which every garbage-collector
// sample runs, whatever its leaf.
var gcRoots = []string{
	"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep",
	"runtime.bgscavenge", "runtime.gcStart", "runtime.markroot",
	"runtime.sweepone", "runtime.(*sweepLocked).sweep",
}

// groupOf classifies one sample by its stack, leaf first. Garbage
// collection and map hashing are groups of their own; any other sample is
// charged to the innermost frame that belongs to a layer, so the standard
// library code a layer calls (JSON encoding, system calls, allocation)
// counts as that layer's. Samples with no layer frame are other.
func groupOf(stack []string) string {
	for _, f := range stack {
		for _, r := range gcRoots {
			if f == r {
				return "runtime_gc"
			}
		}
	}
	if len(stack) > 0 {
		leaf := stack[0]
		if strings.HasPrefix(leaf, "runtime.map") || strings.HasPrefix(leaf, "runtime.aeshash") ||
			strings.HasPrefix(leaf, "runtime.memhash") || strings.HasPrefix(leaf, "runtime.strhash") {
			return "runtime_map"
		}
	}
	for _, f := range stack {
		for _, g := range pkgGroups {
			if strings.HasPrefix(f, g.prefix) {
				return g.group
			}
		}
	}
	return "other"
}

// reqRoot is the frame at the bottom of every HTTP request goroutine; the
// daemon's hit path runs entirely under it, its computes do not.
const reqRoot = "net/http.(*conn).serve"

// reqGroups split the request goroutines' CPU (the store's envelope codec
// lives in soak); other groups count as other there.
var reqGroups = []string{"serve", "storage", "soak", "obs", "net_http", "runtime_gc", "runtime_map", "other"}

// cpuShares decodes a gzipped pprof CPU profile and returns, as cpu.<group>
// metrics, each group's share of sampled CPU time and, as cpu.req.<group>,
// each group's share of the request goroutines' CPU.
func cpuShares(profile []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(profile))
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, err
	}
	all, req := map[string]int64{}, map[string]int64{}
	for _, s := range p.samples {
		var stack []string
		for _, loc := range s.locs {
			stack = append(stack, p.locFuncs[loc]...)
		}
		g := groupOf(stack)
		all[g] += s.value
		for _, f := range stack {
			if f == reqRoot {
				req[reqGroup(g)] += s.value
				break
			}
		}
	}
	out := map[string]float64{}
	share(out, "cpu.", cpuGroups, all)
	share(out, "cpu.req.", reqGroups, req)
	return out, nil
}

func reqGroup(g string) string {
	for _, r := range reqGroups {
		if g == r {
			return g
		}
	}
	return "other"
}

// share writes each group's share of the total of by, 0 when empty.
func share(out map[string]float64, prefix string, groups []string, by map[string]int64) {
	var total int64
	for _, g := range groups {
		total += by[g]
	}
	for _, g := range groups {
		out[prefix+g] = 0
		if total > 0 {
			out[prefix+g] = float64(by[g]) / float64(total)
		}
	}
}

type pprofSample struct {
	locs  []uint64
	value int64
}

// profile holds the decoded fields. locFuncs lists a location's function
// names innermost first (inlined frames precede their caller).
type profile struct {
	samples  []pprofSample
	locFuncs map[uint64][]string
}

// decodeProfile reads the profile.proto fields the layer split uses:
// Profile.sample (2), .location (4), .function (5), .string_table (6);
// Sample.location_id (1), .value (2, the last value is CPU nanoseconds);
// Location.id (1), .line (4); Line.function_id (1); Function.id (1),
// .name (2).
func decodeProfile(b []byte) (*profile, error) {
	var (
		strs     []string
		samples  []pprofSample
		locLines = map[uint64][]uint64{}
		funcName = map[uint64]int64{}
	)
	err := walk(b, func(field int, wt int, v uint64, data []byte) error {
		switch field {
		case 2:
			var s pprofSample
			var vals []int64
			err := walk(data, func(f, wt int, v uint64, d []byte) error {
				switch f {
				case 1:
					ids, err := varints(wt, v, d)
					s.locs = append(s.locs, ids...)
					return err
				case 2:
					xs, err := varints(wt, v, d)
					for _, x := range xs {
						vals = append(vals, int64(x))
					}
					return err
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(vals) > 0 {
				s.value = vals[len(vals)-1]
			}
			samples = append(samples, s)
		case 4:
			var id uint64
			var fns []uint64
			err := walk(data, func(f, wt int, v uint64, d []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					return walk(d, func(f, wt int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locLines[id] = fns
		case 5:
			var id uint64
			var name int64
			err := walk(data, func(f, wt int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcName[id] = name
		case 6:
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	p := &profile{samples: samples, locFuncs: make(map[uint64][]string, len(locLines))}
	for loc, fns := range locLines {
		names := make([]string, 0, len(fns))
		for _, f := range fns {
			if i := funcName[f]; i >= 0 && int(i) < len(strs) {
				names = append(names, strs[i])
			}
		}
		p.locFuncs[loc] = names
	}
	return p, nil
}

// walk iterates the fields of one protobuf message. For varint fields v
// holds the value; for length-delimited fields data holds the bytes.
func walk(b []byte, fn func(field, wireType int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return fmt.Errorf("pprof: bad field key")
		}
		b = b[n:]
		field, wt := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wt {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return fmt.Errorf("pprof: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return fmt.Errorf("pprof: short fixed64")
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return fmt.Errorf("pprof: bad length")
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return fmt.Errorf("pprof: short fixed32")
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("pprof: wire type %d", wt)
		}
		if err := fn(field, wt, v, data); err != nil {
			return err
		}
	}
	return nil
}

// varints returns a repeated integer field's values, packed or not.
func varints(wireType int, v uint64, data []byte) ([]uint64, error) {
	if wireType == 0 {
		return []uint64{v}, nil
	}
	var out []uint64
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return nil, fmt.Errorf("pprof: bad packed varint")
		}
		out = append(out, x)
		data = data[n:]
	}
	return out, nil
}
