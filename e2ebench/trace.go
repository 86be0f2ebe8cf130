package main

import (
	"bufio"
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// Span is one timed call into a layer, recorded by the benchmark around
// a public function of that layer. Spans of one operation (one circuit
// factored, one service job) share Op; Parent is 0 for a root span.
type Span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Op      int    `json:"op"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// Recorder keeps spans in memory until the run ends. It is safe for
// concurrent use; the service workloads record from two client
// goroutines.
type Recorder struct {
	base time.Time

	mu sync.Mutex
	// spans is guarded by mu.
	spans []Span
}

// NewRecorder returns an empty recorder whose timestamps count from now.
func NewRecorder() *Recorder {
	return &Recorder{base: time.Now()}
}

// Begin opens a span and returns its id.
func (r *Recorder) Begin(parent, op int, name string) int {
	now := time.Since(r.base).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, Span{ID: id, Parent: parent, Op: op, Name: name, StartNS: now, EndNS: now})
	return id
}

// End closes span id.
func (r *Recorder) End(id int) {
	now := time.Since(r.base).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id-1].EndNS = now
}

// Spans returns a copy of the recorded spans in id order.
func (r *Recorder) Spans() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// WriteJSONL writes one JSON object per span.
func (r *Recorder) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range r.Spans() {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// SelfTimes returns each span's self time by id: its duration minus the
// union of its children's intervals, clipped to its own. Children may
// overlap each other (concurrent calls under one parent), so their
// intervals are merged before they are subtracted.
func SelfTimes(spans []Span) map[int]int64 {
	children := map[int][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.StartNS, s.EndNS})
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = (s.EndNS - s.StartNS) - covered(children[s.ID], s.StartNS, s.EndNS)
	}
	return self
}

// covered returns the length of the union of ivs clipped to [lo, hi].
func covered(ivs [][2]int64, lo, hi int64) int64 {
	clipped := make([][2]int64, 0, len(ivs))
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if a < b {
			clipped = append(clipped, [2]int64{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var total int64
	for i := 0; i < len(clipped); {
		a, b := clipped[i][0], clipped[i][1]
		for i++; i < len(clipped) && clipped[i][0] <= b; i++ {
			b = max(b, clipped[i][1])
		}
		total += b - a
	}
	return total
}

// layerTotals sums self time and duration by span name.
type layerTotals struct {
	selfNS  map[string]int64
	durNS   map[string]int64
	durList map[string][]float64 // per-span durations in ms
}

func totalsByName(spans []Span) layerTotals {
	self := SelfTimes(spans)
	t := layerTotals{
		selfNS:  map[string]int64{},
		durNS:   map[string]int64{},
		durList: map[string][]float64{},
	}
	for _, s := range spans {
		d := s.EndNS - s.StartNS
		t.selfNS[s.Name] += self[s.ID]
		t.durNS[s.Name] += d
		t.durList[s.Name] = append(t.durList[s.Name], float64(d)/1e6)
	}
	return t
}
