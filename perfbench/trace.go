package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call the benchmark made into a layer of the
// program. Parent is the index of the enclosing span (-1 for a root);
// Op is the op the span belongs to (-1 outside the op loop).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
}

// tracer keeps spans in memory; they are written once, at exit. A nil
// tracer records nothing, so untraced code paths call it freely. One
// tracer belongs to one goroutine (rank 0).
type tracer struct {
	epoch time.Time
	spans []span
	open  []int // stack of open span indices
	op    int
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), op: -1} }

// begin opens a span nested in the innermost open one and returns the
// function that closes it.
func (t *tracer) begin(name string) func() {
	if t == nil {
		return func() {}
	}
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	idx := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Start: t.now(), End: -1, Parent: parent, Op: t.op})
	t.open = append(t.open, idx)
	return func() {
		t.spans[idx].End = t.now()
		t.open = t.open[:len(t.open)-1]
	}
}

// add records an already finished span nested in the innermost open one.
func (t *tracer) add(name string, start, end time.Time) {
	if t == nil {
		return
	}
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(start.Sub(t.epoch)),
		End: int64(end.Sub(t.epoch)), Parent: parent, Op: t.op})
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// setOp tags the spans opened from now on with op id (-1: none).
func (t *tracer) setOp(op int) {
	if t != nil {
		t.op = op
	}
}

// durations returns the duration in seconds of every closed span named
// name, in recording order.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.End >= 0 {
			out = append(out, float64(s.End-s.Start)/1e9)
		}
	}
	return out
}

// selfTimes returns each span name's total self time in seconds: its
// spans' durations minus the parts of those intervals their child
// spans cover. Children of one span never overlap (one goroutine
// records them), so the covered part is the sum of child durations.
func (t *tracer) selfTimes() map[string]float64 {
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	out := map[string]float64{}
	for i, s := range t.spans {
		out[s.Name] += float64(self[i]) / 1e9
	}
	return out
}

// write stores the spans, the host record and the per-name self times
// as one JSON document at path.
func (t *tracer) write(path string, host hostInfo) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	doc := struct {
		Host  hostInfo           `json:"host"`
		Self  map[string]float64 `json:"self_s"`
		Spans []span             `json:"spans"`
	}{host, t.selfTimes(), t.spans}
	b, err := json.Marshal(doc)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}

// selfTable renders self times largest first, for the human summary.
func selfTable(self map[string]float64) string {
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	s := ""
	for _, n := range names {
		s += fmt.Sprintf("  %-28s %10.4f s\n", n, self[n])
	}
	return s
}
