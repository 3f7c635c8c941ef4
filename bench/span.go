package main

import (
	"sort"
	"strings"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's
// own files around the call. Times are Unix nanoseconds so spans
// recorded in a child process line up with the parent's. Parent is the
// ID of the span that caused this one, 0 for a root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Run    string `json:"run"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) seconds() float64 { return float64(s.End-s.Start) / 1e9 }

// tracer keeps spans in memory; they are written out once, at exit.
type tracer struct {
	run   string
	spans []span
}

func newTracer(run string) *tracer { return &tracer{run: run} }

// begin opens a span under parent and returns its ID.
func (t *tracer) begin(name string, parent int) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Run: t.run, Name: name, Start: time.Now().UnixNano()})
	return id
}

func (t *tracer) end(id int) {
	t.spans[id-1].End = time.Now().UnixNano()
}

// add records a span timed elsewhere, such as a process's lifetime.
func (t *tracer) add(name string, parent int, start, end int64) {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Run: t.run, Name: name, Start: start, End: end})
}

// adopt appends spans recorded elsewhere (a child process), renumbering
// them and hanging their roots under parent.
func (t *tracer) adopt(spans []span, parent int) {
	base := len(t.spans)
	for _, s := range spans {
		s.ID += base
		if s.Parent == 0 {
			s.Parent = parent
		} else {
			s.Parent += base
		}
		s.Run = t.run
		t.spans = append(t.spans, s)
	}
}

func (t *tracer) get(id int) span { return t.spans[id-1] }

// selfSeconds returns, per span ID, the span's duration minus the part
// of its interval that its child spans cover (overlapping children
// count once).
func selfSeconds(spans []span) map[int]float64 {
	children := map[int][]span{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	self := make(map[int]float64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = float64(s.End-s.Start-covered) / 1e9
	}
	return self
}

// selfByName sums self time over the spans sharing a name.
func selfByName(spans []span) map[string]float64 {
	self := selfSeconds(spans)
	out := map[string]float64{}
	for _, s := range spans {
		out[s.Name] += self[s.ID]
	}
	return out
}

// harnessPrefix marks spans of the harness itself (the operation root,
// a child process's lifetime); every other span is named after the
// repository package it calls into.
const harnessPrefix = "bench."

// coverage is the share of the root span's duration that is self time
// of layer spans: what is left is time the ledger cannot name.
func coverage(spans []span, root int) float64 {
	total := spans[root-1].seconds()
	if total <= 0 {
		return 0
	}
	named := 0.0
	for name, s := range selfByName(spans) {
		if !strings.HasPrefix(name, harnessPrefix) {
			named += s
		}
	}
	return named / total
}
