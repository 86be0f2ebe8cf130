package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestSelfTimesOverlappingChildren checks self time on a synthetic
// tree whose children overlap each other and overrun their parent.
func TestSelfTimesOverlappingChildren(t *testing.T) {
	spans := []Span{
		{ID: 1, Parent: 0, Name: "root", StartNS: 0, EndNS: 100},
		// a and b overlap on [30, 40]; their union is [10, 60].
		{ID: 2, Parent: 1, Name: "a", StartNS: 10, EndNS: 40},
		{ID: 3, Parent: 1, Name: "b", StartNS: 30, EndNS: 60},
		// c overruns the root: only [90, 100] counts against it.
		{ID: 4, Parent: 1, Name: "c", StartNS: 90, EndNS: 120},
		// d nests inside a, and e lies inside d, so e never reaches
		// the root's arithmetic.
		{ID: 5, Parent: 2, Name: "d", StartNS: 20, EndNS: 25},
		{ID: 6, Parent: 5, Name: "e", StartNS: 21, EndNS: 22},
		// f and g coincide exactly under b.
		{ID: 7, Parent: 3, Name: "f", StartNS: 35, EndNS: 45},
		{ID: 8, Parent: 3, Name: "f", StartNS: 35, EndNS: 45},
	}
	want := map[int]int64{
		1: 100 - 50 - 10,
		2: 30 - 5,
		3: 30 - 10,
		4: 30,
		5: 5 - 1,
		6: 1,
		7: 10,
		8: 10,
	}
	got := SelfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("span %d: self %d, want %d", id, got[id], w)
		}
	}
	tot := totalsByName(spans)
	if tot.selfNS["f"] != 20 || len(tot.durList["f"]) != 2 {
		t.Errorf("totals for f: self %d over %d spans, want 20 over 2", tot.selfNS["f"], len(tot.durList["f"]))
	}
}

func TestRecorderWritesJSONLines(t *testing.T) {
	r := NewRecorder()
	root := r.Begin(0, 7, "root")
	child := r.Begin(root, 7, "child")
	r.End(child)
	r.End(root)
	var buf bytes.Buffer
	if err := r.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2", len(lines))
	}
	var s Span
	if err := json.Unmarshal([]byte(lines[1]), &s); err != nil {
		t.Fatal(err)
	}
	if s.ID != child || s.Parent != root || s.Op != 7 || s.Name != "child" || s.EndNS < s.StartNS {
		t.Errorf("decoded %+v", s)
	}
}
