package main

import "testing"

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "http.hit", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "storage.read", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "storage.read", Start: 20, End: 40},   // overlaps 2: counted once
		{ID: 4, Parent: 1, Name: "storage.write", Start: 90, End: 120}, // clipped to the parent
		{ID: 5, Parent: 2, Name: "inner", Start: 12, End: 14},
		{ID: 6, Name: "core.Run", Start: 200, End: 250},
	}
	self := selfTimes(spans)
	want := map[int]int64{1: 100 - 30 - 10, 2: 20 - 2, 3: 20, 4: 30, 5: 2, 6: 50}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d: self %d, want %d", id, self[id], w)
		}
	}
}

func TestAdoptJoinsStorageSpansByFingerprint(t *testing.T) {
	tr := newTracer()
	req := tr.start("http.compute", "", 0)
	mine := tr.start("storage.write", "/store/abc123.doc.json.tmp", 0)
	tr.stop(mine)
	other := tr.start("storage.write", "/store/def456.doc.json", 0)
	tr.stop(other)
	tr.stop(req)
	late := tr.start("storage.read", "/store/abc123.doc.json", 0) // after the request ended
	tr.stop(late)
	tr.adopt(req, "abc123")
	spans := tr.snapshot()
	if s := spans[mine-1]; s.Parent != req || s.Req != req {
		t.Errorf("matching span not joined: %+v", s)
	}
	if spans[other-1].Parent != 0 || spans[late-1].Parent != 0 {
		t.Errorf("unrelated spans joined: %+v %+v", spans[other-1], spans[late-1])
	}
	var off *tracer
	if id := off.start("x", "", 0); id != 0 {
		t.Fatalf("a nil tracer must not record, got id %d", id)
	}
	off.stop(0)
	off.adopt(1, "abc")
}
