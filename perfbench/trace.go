package main

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one traced interval: a call the benchmark made into a layer, a
// client HTTP request, or a storage operation the daemon made through the
// timing filesystem. Times are nanoseconds since the tracer started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Req    int    `json:"req,omitempty"`
	Name   string `json:"name"`
	File   string `json:"file,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per call.
type tracer struct {
	t0      time.Time
	mu      sync.Mutex
	spans   []span
	orphans []int // storage spans not yet joined to a request
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span and returns its ID (0 when tracing is off). A child
// joins its parent's request; a span without a parent starts a request of
// its own until adopt joins it to one.
func (t *tracer) start(name, file string, parent int) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	req := id
	if parent != 0 {
		req = t.spans[parent-1].Req
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, File: file, Start: now, End: -1})
	if parent == 0 && file != "" {
		t.orphans = append(t.orphans, id)
		if len(t.orphans) > maxOrphans {
			// Spans no request claimed (the daemon's own housekeeping)
			// stay in the record, unjoined; only the search list is cut.
			t.orphans = append(t.orphans[:0], t.orphans[len(t.orphans)/2:]...)
		}
	}
	return id
}

// maxOrphans bounds the unjoined storage spans adopt searches.
const maxOrphans = 4096

// stop closes a span.
func (t *tracer) stop(id int) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
}

// adopt joins the unjoined storage spans of one request to it: those
// inside the request's interval whose file name starts with the
// fingerprint the response carried. The daemon's storage calls cannot see
// the client's span, so the fingerprint in the file name is the join key.
func (t *tracer) adopt(reqID int, fp string) {
	if t == nil || reqID == 0 || fp == "" {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	r := t.spans[reqID-1]
	kept := t.orphans[:0]
	for _, id := range t.orphans {
		s := &t.spans[id-1]
		if strings.HasPrefix(filepath.Base(s.File), fp) && s.Start >= r.Start && s.End >= s.Start && s.End <= r.End {
			s.Parent, s.Req = r.ID, r.Req
			continue
		}
		kept = append(kept, id)
	}
	t.orphans = kept
}

// snapshot copies the recorded spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// jsonl renders spans one JSON object per line.
func jsonl(spans []span) []byte {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	for _, s := range spans {
		_ = enc.Encode(s) // a span of plain fields always encodes
	}
	return b.Bytes()
}

// selfTimes returns, per span ID, the span's duration minus the part of its
// interval that its children cover. Overlapping children are counted once
// and a child reaching outside its parent is clipped to it.
func selfTimes(spans []span) map[int]int64 {
	kids := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int]int64, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s, kids[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent span, children []span) int64 {
	type iv struct{ lo, hi int64 }
	var ivs []iv
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, curLo, curHi int64
	for i, v := range ivs {
		switch {
		case i == 0:
			curLo, curHi = v.lo, v.hi
		case v.lo <= curHi:
			curHi = max(curHi, v.hi)
		default:
			total += curHi - curLo
			curLo, curHi = v.lo, v.hi
		}
	}
	if len(ivs) > 0 {
		total += curHi - curLo
	}
	return total
}
