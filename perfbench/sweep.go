package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/verify"
)

// sweepMachines vary the working set against the caches: the paper's 8 KB
// direct-mapped i-cache that misses, a 32 KB 8-way one that holds the
// whole path, and the paper's 266 MHz successor with dearer misses.
var sweepMachines = []string{"dec3000", "modern", "future266"}

// sweepCell is one Table-4 configuration on one machine.
type sweepCell struct {
	machine string
	key     cellKey
	cfg     core.Config
}

// name is the cell's key in the reference table.
func (c sweepCell) name() string {
	return fmt.Sprintf("%s/%v/%v", c.machine, c.key.stack, c.key.version)
}

// roundtrips is the simulated work one run of the cell does.
func (c sweepCell) roundtrips() float64 {
	return float64(c.cfg.Samples * (c.cfg.Warmup + c.cfg.Measured))
}

// sweepCells lists the 36 cells at quick quality in a fixed order.
func sweepCells() []sweepCell {
	var cells []sweepCell
	for _, mn := range sweepMachines {
		m := model(mn).Machine
		for _, k := range stacks {
			for _, v := range core.Versions() {
				cfg := core.Quick.Apply(core.DefaultConfig(k, v))
				cfg.Machine = m
				cells = append(cells, sweepCell{machine: mn, key: cellKey{k, v}, cfg: cfg})
			}
		}
	}
	return cells
}

func (c sweepCell) image() image {
	return image{stack: c.key.stack, version: c.key.version, machine: c.cfg.Machine}
}

// runDoc is the cell result in the repository's JSON document form, the
// bytes the reference table pins: Te, Tp, trace length, CPI and every
// cache statistic of every sample.
func runDoc(res *core.Result) []byte {
	b, err := json.Marshal(core.RunDoc(res))
	if err != nil {
		return nil
	}
	return b
}

// coldPerPass is how many cells each sweep pass also runs from cold; three
// give the compute class about a hundred samples per ten seconds.
const coldPerPass = 3

// sweepWorkload repeats the Table-4 sweep, one core.Run per cell, on three
// machines. Each pass also runs coldPerPass cells from cold — a fresh uncached
// build, verify and run of its image — rotating through the cells, so the
// sweep has a compute class beside its cached-image hits.
type sweepWorkload struct {
	cells  []sweepCell
	ref    map[string][]byte
	cold   int // cold runs so far; picks the next cell to run cold
	next   int // the next cell to run; passes continue across slices
	latest map[string]*core.Result
}

func newSweep() (*sweepWorkload, error) {
	ref, err := loadRef[map[string]json.RawMessage]("sweep.json")
	if err != nil {
		return nil, err
	}
	w := &sweepWorkload{cells: sweepCells(), ref: map[string][]byte{}, latest: map[string]*core.Result{}}
	for _, k := range sortedKeys(ref) {
		var b bytes.Buffer
		if err := json.Compact(&b, ref[k]); err != nil {
			return nil, fmt.Errorf("reference %s: %w", k, err)
		}
		w.ref[k] = b.Bytes()
	}
	return w, nil
}

func (w *sweepWorkload) images() []image {
	imgs := make([]image, len(w.cells))
	for i, c := range w.cells {
		imgs[i] = c.image()
	}
	return imgs
}

func (w *sweepWorkload) setup(bool) error { return coldBuild(w.images(), nil) }

func (w *sweepWorkload) warm() error {
	for _, c := range w.cells {
		res, err := core.Run(c.cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", c.name(), err)
		}
		if !w.check(c, res) {
			return fmt.Errorf("%s: result differs from the reference", c.name())
		}
	}
	return nil
}

// check compares a cell's result with the reference and keeps it.
func (w *sweepWorkload) check(c sweepCell, res *core.Result) bool {
	w.latest[c.name()] = res
	return bytes.Equal(runDoc(res), w.ref[c.name()])
}

func (w *sweepWorkload) begin() {}

func (w *sweepWorkload) measure(deadline time.Time, tr *tracer) *phase {
	p := &phase{}
	for time.Now().Before(deadline) {
		i := w.next
		w.next = (w.next + 1) % len(w.cells)
		c := w.cells[i]
		// Cold runs are spread through the pass, so even a short phase
		// measures both classes.
		if i%(len(w.cells)/coldPerPass) == 0 {
			cc := w.cells[w.cold%len(w.cells)]
			w.cold++
			d, res, err := w.runCold(cc, tr)
			p.record(false, true, d, err == nil && w.check(cc, res))
			p.work += cc.roundtrips()
		}
		id := tr.start("core.Run", "", 0)
		t0 := time.Now()
		res, err := core.Run(c.cfg)
		d := time.Since(t0)
		tr.stop(id)
		p.record(true, true, d, err == nil && w.check(c, res))
		p.work += c.roundtrips()
	}
	p.paperErrPct, p.optTpUS = w.simulated()
	return p
}

// runCold runs one cell on an image built from scratch for it.
func (w *sweepWorkload) runCold(c sweepCell, tr *tracer) (time.Duration, *core.Result, error) {
	parent := tr.start("sweep.cold", "", 0)
	defer tr.stop(parent)
	t0 := time.Now()
	id := tr.start("core.BuildProgramUncached", "", parent)
	img, err := core.BuildProgramUncached(c.key.stack, c.key.version, c.cfg.Feat, c.cfg.Strategy, c.cfg.Machine)
	tr.stop(id)
	if err != nil {
		return time.Since(t0), nil, err
	}
	id = tr.start("verify.Program", "", parent)
	err = verify.Program(img, c.cfg.Machine)
	tr.stop(id)
	if err != nil {
		return time.Since(t0), nil, err
	}
	cfg := c.cfg
	cfg.Custom = img
	id = tr.start("core.Run", "", parent)
	res, err := core.Run(cfg)
	tr.stop(id)
	return time.Since(t0), res, err
}

// simulated derives the sweep's simulated end-to-end numbers from its
// latest results: the model's error against the paper's dec3000 Te, and
// the geometric mean over the machines of the best TCP/IP layout's Tp.
func (w *sweepWorkload) simulated() (errPct, tpUS float64) {
	te := map[cellKey]float64{}
	var best []float64
	for _, mn := range sweepMachines {
		b := math.Inf(1)
		for _, c := range w.cells {
			res := w.latest[c.name()]
			if c.machine != mn || res == nil {
				continue
			}
			if mn == "dec3000" {
				te[c.key] = res.TeMeanUS
			}
			if c.key.stack == core.StackTCPIP {
				b = math.Min(b, res.TpMeanUS())
			}
		}
		if !math.IsInf(b, 1) {
			best = append(best, b)
		}
	}
	return paperErrPct(te), geomean(best)
}

func (w *sweepWorkload) layer() map[string]float64 { return nil }

func (w *sweepWorkload) close() {}
