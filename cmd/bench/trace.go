package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the harness around
// the call (spans inside the program are a later change). Start and End
// are nanoseconds since the tracer was created. Parent is the id of the
// span that caused this one (-1 for a root); Op is the batch, request or
// step the span belongs to, so the spans of one operation share it.
type span struct {
	ID       int              `json:"id"`
	Parent   int              `json:"parent"`
	Name     string           `json:"name"`
	Workload string           `json:"workload"`
	Op       int              `json:"op"`
	Start    int64            `json:"start_ns"`
	End      int64            `json:"end_ns"`
	SelfNS   int64            `json:"self_ns"`
	Counters map[string]int64 `json:"counters,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced pass: begin and end cost one nil check.
type tracer struct {
	workload string
	t0       time.Time
	mu       sync.Mutex
	spans    []span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, t0: time.Now()}
}

// begin opens a span and returns its id (-1 when untraced).
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Workload: t.workload, Op: op, Start: now, End: -1})
	t.mu.Unlock()
	return id
}

// end closes span id, attaching the counter deltas measured at the same
// boundary.
func (t *tracer) end(id int, counters map[string]int64) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.spans[id].Counters = counters
	t.mu.Unlock()
}

// selfTimes fills SelfNS for every span: its duration minus the part of
// its interval that its direct children cover. Children may overlap
// (the router calls its engines in parallel), so the covered part is the
// union of their intervals clipped to the parent, not their sum.
func selfTimes(spans []span) {
	children := make(map[int][]int)
	for i := range spans {
		if p := spans[i].Parent; p >= 0 && p < len(spans) {
			children[p] = append(children[p], i)
		}
	}
	for i := range spans {
		s := &spans[i]
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		var covered int64
		at := s.Start
		for _, k := range kids {
			lo, hi := spans[k].Start, spans[k].End
			if lo < at {
				lo = at
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				at = hi
			}
		}
		s.SelfNS = s.End - s.Start - covered
	}
}

// durationsMS returns the durations, in milliseconds, of every closed
// span with the given name.
func (t *tracer) durationsMS(name string) []float64 {
	var out []float64
	for i := range t.spans {
		if s := &t.spans[i]; s.Name == name && s.End >= 0 {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// childCoverage returns, over every closed span named parent that has
// children, the ratio Σ child durations ÷ Σ parent durations — the
// "parts sum to the whole" figure the report prints.
func (t *tracer) childCoverage(parent string) float64 {
	var kids, whole int64
	isParent := make(map[int]bool)
	for i := range t.spans {
		if s := &t.spans[i]; s.Name == parent && s.End >= 0 {
			isParent[i] = true
			whole += s.End - s.Start
		}
	}
	for i := range t.spans {
		if s := &t.spans[i]; isParent[s.Parent] && s.End >= 0 {
			kids += s.End - s.Start
		}
	}
	if whole == 0 {
		return 0
	}
	return float64(kids) / float64(whole)
}

// write computes self times and writes one JSON object per span.
func (t *tracer) write(path string) error {
	selfTimes(t.spans)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
