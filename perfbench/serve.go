package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	iofs "io/fs"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/storage"
)

// timingFS is the storage.FS the daemon writes through. While a tracer is
// attached it times and counts the five operations the store's read and
// write paths make, and records a span for each; otherwise it passes
// straight through.
type timingFS struct {
	inner storage.FS
	tr    atomic.Pointer[tracer]
	mu    sync.Mutex
	n     map[string]int
	total map[string]time.Duration
}

// storageOps are the timed operations, in report order.
var storageOps = []string{"read", "write", "sync", "rename", "remove"}

func newTimingFS() *timingFS {
	return &timingFS{inner: storage.Disk, n: map[string]int{}, total: map[string]time.Duration{}}
}

// attach starts timing into tr (nil stops) and clears the counters.
func (f *timingFS) attach(tr *tracer) {
	f.mu.Lock()
	f.n, f.total = map[string]int{}, map[string]time.Duration{}
	f.mu.Unlock()
	f.tr.Store(tr)
}

func (f *timingFS) op(name, path string, fn func() error) error {
	tr := f.tr.Load()
	if tr == nil {
		return fn()
	}
	id := tr.start("storage."+name, path, 0)
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	tr.stop(id)
	f.mu.Lock()
	f.n[name]++
	f.total[name] += d
	f.mu.Unlock()
	return err
}

// layer reports each operation's mean latency and count.
func (f *timingFS) layer() map[string]float64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := map[string]float64{}
	for _, op := range storageOps {
		n := f.n[op]
		out["storage."+op+"_n"] = float64(n)
		if n > 0 {
			out["storage."+op+"_us"] = float64(f.total[op]) / float64(n) / 1e3
		}
	}
	return out
}

func (f *timingFS) ReadFile(path string) (b []byte, err error) {
	err = f.op("read", path, func() error { b, err = f.inner.ReadFile(path); return err })
	return b, err
}

func (f *timingFS) WriteFile(path string, data []byte, perm os.FileMode) error {
	return f.op("write", path, func() error { return f.inner.WriteFile(path, data, perm) })
}

func (f *timingFS) Sync(path string) error {
	return f.op("sync", path, func() error { return f.inner.Sync(path) })
}

func (f *timingFS) Rename(oldpath, newpath string) error {
	return f.op("rename", newpath, func() error { return f.inner.Rename(oldpath, newpath) })
}

func (f *timingFS) Remove(path string) error {
	return f.op("remove", path, func() error { return f.inner.Remove(path) })
}

func (f *timingFS) MkdirAll(path string, perm os.FileMode) error { return f.inner.MkdirAll(path, perm) }

func (f *timingFS) Stat(path string) (iofs.FileInfo, error) { return f.inner.Stat(path) }

func (f *timingFS) Glob(pattern string) ([]string, error) { return f.inner.Glob(pattern) }

// daemon is one in-process experiment daemon on loopback HTTP.
type daemon struct {
	dir    string
	srv    *serve.Server
	hs     *http.Server
	addr   string
	served chan error
}

// daemonDescribe salts every fingerprint; a fixed value keeps the
// benchmark's documents identical across checkouts.
const daemonDescribe = "perfbench"

func startDaemon(dir string, fsys storage.FS) (*daemon, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	srv, err := serve.New(serve.Config{StoreDir: dir, Workers: 1, GitDescribe: daemonDescribe, FS: fsys})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	d := &daemon{dir: dir, srv: srv, hs: &http.Server{Handler: srv.Handler()}, addr: ln.Addr().String(), served: make(chan error, 1)}
	go func() { d.served <- d.hs.Serve(ln) }()
	return d, nil
}

// stop shuts the HTTP server and the daemon down, waits for both, and
// removes the store.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.hs.Shutdown(ctx)
	if serr := <-d.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	d.srv.BeginDrain()
	if derr := d.srv.Drain(30 * time.Second); derr != nil && err == nil {
		err = derr
	}
	d.srv.Close()
	if rerr := os.RemoveAll(d.dir); rerr != nil && err == nil {
		err = rerr
	}
	return err
}

// client is one connection to the daemon: a closed loop that waits for
// each reply before sending again.
type client struct {
	hc   *http.Client
	addr string
}

func newClient(addr string) *client {
	return &client{
		hc:   &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}},
		addr: addr,
	}
}

// reply is one response's status, identity headers and body.
type reply struct {
	status   int
	fp       string
	cache    string
	body     []byte
	duration time.Duration
}

// do sends one request, timed from send to the last body byte, inside a
// span that the daemon's storage spans for the same fingerprint join.
func (c *client) do(method, path string, body []byte, name string, tr *tracer) (reply, error) {
	id := tr.start(name, "", 0)
	t0 := time.Now()
	req, err := http.NewRequest(method, "http://"+c.addr+path, bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		tr.stop(id)
		return reply{}, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	r := reply{status: resp.StatusCode, fp: resp.Header.Get("X-Protolat-Fingerprint"), cache: resp.Header.Get("X-Protolat-Cache"), body: b, duration: time.Since(t0)}
	tr.stop(id)
	tr.adopt(id, r.fp)
	return r, err
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// memoSpecs is the daemon's memoized set: the twelve dec3000 Table-4 cells
// as single-run documents.
func memoSpecs() [][]byte {
	var out [][]byte
	for _, k := range stacks {
		for _, v := range core.Versions() {
			out = append(out, mustJSON(serve.Spec{Kind: "run", Stack: specStack(k), Version: v.String()}))
		}
	}
	return out
}

// computeSpec is client B's i-th fresh submission: a one-rate fault study
// or a small soak, alternately, seeded so that no two submissions of any
// run share a fingerprint.
func computeSpec(seed uint64, i int) serve.Spec {
	s := serve.Spec{Stack: "tcpip", Seed: seed*1_000_003 + uint64(i) + 1}
	if i%2 == 0 {
		s.Kind, s.Rates = "faults", "0.05"
	} else {
		s.Kind, s.SoakBatches, s.SoakRoundtrips = "soak", 1, 6
	}
	return s
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

// written is one computed document, refetched at the end of a phase.
type written struct {
	fp   string
	body []byte
}

// serveWorkload drives one daemon (one worker) with two closed-loop
// clients on their own connections: A re-requests the memoized documents
// (fingerprint, store read, CRC check, response), B submits fresh fault
// studies and soaks (journal, queue, compute, render, persist). Both share
// the store and the two cores, so a change that helps one side at the
// other's cost shows.
type serveWorkload struct {
	seed   uint64
	dir    string
	fs     *timingFS
	d      *daemon
	memo   [][]byte
	first  map[string][]byte // memo spec -> first response body
	next   int               // client B's submission counter
	stats  [2]obs.ServeStatsDoc
	docKB  float64
	simErr float64
	simTp  float64
}

func newServe(seed uint64, dir string, fs *timingFS) *serveWorkload {
	return &serveWorkload{seed: seed, dir: dir, fs: fs, memo: memoSpecs()}
}

// serveImages are the images the memo set and client B's studies run.
func serveImages() []image {
	var imgs []image
	m := model("dec3000").Machine
	for _, k := range stacks {
		for _, v := range core.Versions() {
			imgs = append(imgs, image{stack: k, version: v, machine: m})
		}
	}
	return imgs
}

// setup builds the images cold, starts a daemon on an empty store
// (recovery included) and seeds the memo set. Only the last set-up's
// daemon is kept.
func (w *serveWorkload) setup(last bool) error {
	if err := coldBuild(serveImages(), nil); err != nil {
		return err
	}
	d, err := startDaemon(filepath.Join(w.dir, "store"), w.fs)
	if err != nil {
		return err
	}
	c := newClient(d.addr)
	defer c.close()
	first := map[string][]byte{}
	for _, spec := range w.memo {
		r, err := c.do(http.MethodPost, "/v1/experiments", spec, "http.seed", nil)
		if err != nil || r.status != http.StatusOK || r.cache != "computed" {
			d.stop()
			return fmt.Errorf("seeding memo set: status %d cache %q: %v", r.status, r.cache, err)
		}
		first[string(spec)] = r.body
	}
	if !last {
		return d.stop()
	}
	w.d, w.first = d, first
	return w.simulated()
}

// simulated reads the memoized documents' Te and Tp: the model's error
// against the paper on the twelve cells, and the best TCP/IP layout's Tp.
func (w *serveWorkload) simulated() error {
	te := map[cellKey]float64{}
	best := math.Inf(1)
	var kb float64
	for _, spec := range w.memo {
		var doc obs.Document
		if err := json.Unmarshal(w.first[string(spec)], &doc); err != nil || len(doc.Runs) != 1 {
			return fmt.Errorf("memo document: %v", err)
		}
		var s serve.Spec
		if err := json.Unmarshal(spec, &s); err != nil {
			return err
		}
		run := doc.Runs[0]
		k := cellKey{core.StackTCPIP, 0}
		if s.Stack == "rpc" {
			k.stack = core.StackRPC
		}
		for _, v := range core.Versions() {
			if v.String() == s.Version {
				k.version = v
			}
		}
		te[k] = run.TeMeanUS
		if k.stack == core.StackTCPIP {
			var tp float64
			for _, smp := range run.Samples {
				tp += smp.TpUS
			}
			best = math.Min(best, tp/float64(len(run.Samples)))
		}
		kb += float64(len(w.first[string(spec)])) / 1024
	}
	w.simErr, w.simTp, w.docKB = paperErrPct(te), best, kb/float64(len(w.memo))
	return nil
}

func (w *serveWorkload) warm() error {
	c := newClient(w.d.addr)
	defer c.close()
	for _, spec := range w.memo {
		if r, err := c.do(http.MethodPost, "/v1/experiments", spec, "http.warm", nil); err != nil || r.cache != "hit" {
			return fmt.Errorf("warm hit: %v (cache %q)", err, r.cache)
		}
	}
	return nil
}

func (w *serveWorkload) begin() { w.stats[0] = w.d.srv.Stats() }

func (w *serveWorkload) measure(deadline time.Time, tr *tracer) *phase {
	start := time.Now()
	var pa, pb phase
	var wg sync.WaitGroup
	var writes []written
	wg.Add(2)
	go func() {
		defer wg.Done()
		c := newClient(w.d.addr)
		defer c.close()
		for i := 0; time.Now().Before(deadline); i++ {
			spec := w.memo[i%len(w.memo)]
			r, err := c.do(http.MethodPost, "/v1/experiments", spec, "http.hit", tr)
			ok := err == nil && r.status == http.StatusOK && r.cache == "hit" && bytes.Equal(r.body, w.first[string(spec)])
			pa.record(true, true, r.duration, ok)
			if ok {
				pa.work++
			}
		}
	}()
	go func() {
		defer wg.Done()
		c := newClient(w.d.addr)
		defer c.close()
		for time.Now().Before(deadline) {
			spec := mustJSON(computeSpec(w.seed, w.next))
			w.next++
			r, err := c.do(http.MethodPost, "/v1/experiments", spec, "http.compute", tr)
			ok := err == nil && r.status == http.StatusOK && r.cache == "computed" && r.fp != ""
			pb.record(false, true, r.duration, ok)
			if ok {
				pb.work++
				writes = append(writes, written{r.fp, r.body})
			}
		}
	}()
	wg.Wait()
	w.stats[1] = w.d.srv.Stats()
	p := &phase{
		elapsed: time.Since(start),
		work:    pa.work + pb.work, hit: pa.hit, compute: pb.compute, call: append(pa.call, pb.call...),
		attempted: pa.attempted + pb.attempted, failed: pa.failed + pb.failed,
		paperErrPct: w.simErr, optTpUS: w.simTp,
	}
	// Every write must read back byte-identically; a mismatch fails the
	// write it belongs to.
	c := newClient(w.d.addr)
	defer c.close()
	for _, wr := range writes {
		r, err := c.do(http.MethodGet, "/v1/results/"+wr.fp, nil, "http.refetch", nil)
		if err != nil || r.status != http.StatusOK || !bytes.Equal(r.body, wr.body) {
			p.failed++
		}
	}
	return p
}

// layer reports the daemon counters' change over the latest phase.
func (w *serveWorkload) layer() map[string]float64 {
	a, b := w.stats[0], w.stats[1]
	return map[string]float64{
		"serve.store_hits":   float64(b.StoreHits - a.StoreHits),
		"serve.store_misses": float64(b.StoreMisses - a.StoreMisses),
		"serve.coalesced":    float64(b.Coalesced - a.Coalesced),
		"serve.rejected":     float64(b.RejectedFull + b.RejectedDraining - a.RejectedFull - a.RejectedDraining),
		"serve.failed":       float64(b.Failed - a.Failed),
		"serve.degraded":     float64(b.DegradedPersists - a.DegradedPersists),
	}
}

func (w *serveWorkload) close() {
	if w.d != nil {
		if err := w.d.stop(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: daemon stop:", err)
		}
		w.d = nil
	}
}

// specStack is a stack's name in a daemon spec.
func specStack(k core.StackKind) string {
	if k == core.StackRPC {
		return "rpc"
	}
	return "tcpip"
}
