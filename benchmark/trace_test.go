package main

import (
	"errors"
	"testing"
)

func TestSelfTimes(t *testing.T) {
	sp := func(id, parent int, start, end, alloc int64) span {
		return span{ID: id, Parent: parent, Start: start, End: end, Alloc: alloc}
	}
	for _, tc := range []struct {
		name      string
		spans     []span
		self      []int64
		selfAlloc []int64
	}{
		{
			name:      "nested: a grandchild is subtracted from its parent only",
			spans:     []span{sp(0, -1, 0, 100, 1000), sp(1, 0, 10, 50, 600), sp(2, 1, 20, 30, 100)},
			self:      []int64{60, 30, 10},
			selfAlloc: []int64{400, 500, 100},
		},
		{
			name:      "adjacent children cover the parent exactly",
			spans:     []span{sp(0, -1, 0, 100, 0), sp(1, 0, 0, 40, 0), sp(2, 0, 40, 100, 0)},
			self:      []int64{0, 40, 60},
			selfAlloc: []int64{0, 0, 0},
		},
		{
			name:      "overlapping children count their union once",
			spans:     []span{sp(0, -1, 0, 100, 0), sp(2, 0, 50, 70, 0), sp(1, 0, 10, 60, 0)},
			self:      []int64{40, 50, 20},
			selfAlloc: []int64{0, 0, 0},
		},
		{
			name:      "a child running past its parent is clipped",
			spans:     []span{sp(0, -1, 0, 50, 0), sp(1, 0, 40, 80, 0)},
			self:      []int64{40, 40},
			selfAlloc: []int64{0, 0},
		},
	} {
		self, selfAlloc := selfTimes(tc.spans)
		for i := range tc.spans {
			id := tc.spans[i].ID
			if self[i] != tc.self[id] || selfAlloc[i] != tc.selfAlloc[id] {
				t.Errorf("%s: span %d self = %d ns, %d B; want %d ns, %d B",
					tc.name, id, self[i], selfAlloc[i], tc.self[id], tc.selfAlloc[id])
			}
		}
	}
}

func TestTracerNesting(t *testing.T) {
	tr := newTracer()
	root := tr.beginOp("k")
	a := tr.begin("egraph")
	tr.end(a, nil)
	b := tr.begin("extract")
	tr.count("extract.calls", 1)
	tr.end(b, errors.New("boom"))
	tr.end(root, nil)

	if len(tr.spans) != 3 || len(tr.open) != 0 {
		t.Fatalf("got %d spans, %d open; want 3, 0", len(tr.spans), len(tr.open))
	}
	r, sa, sb := tr.spans[0], tr.spans[1], tr.spans[2]
	if r.Name != "op" || r.Kernel != "k" || r.Parent != -1 || sa.Parent != r.ID || sb.Parent != r.ID {
		t.Errorf("bad span tree: %+v", tr.spans)
	}
	if sa.Op != r.Op || sb.Op != r.Op || !sb.Err || sa.Err {
		t.Errorf("bad op ids or error flags: %+v", tr.spans)
	}
	if sa.End > sb.Start || sb.End > r.End {
		t.Errorf("spans out of order: %+v", tr.spans)
	}
	if tr.counts["extract.calls"] != 1 {
		t.Errorf("counts = %v", tr.counts)
	}

	var off *tracer // the untraced pass
	off.end(off.begin("egraph"), nil)
	off.count("x", 1)
}
