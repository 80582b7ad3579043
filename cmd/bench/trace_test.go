package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "batch", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "layer.0", Start: 10, End: 40},
		// Overlaps span 1 (parallel engine calls): only 40..50 is new cover.
		{ID: 2, Parent: 0, Name: "layer.1", Start: 30, End: 50},
		// Runs past its parent: clipped at 100.
		{ID: 3, Parent: 0, Name: "features", Start: 90, End: 120},
		{ID: 4, Parent: 1, Name: "read", Start: 15, End: 20},
		{ID: 5, Parent: -1, Name: "lonely", Start: 200, End: 260},
	}
	selfTimes(spans)
	want := []int64{100 - (30 + 10 + 10), 30 - 5, 20, 30, 5, 60}
	for i, w := range want {
		if spans[i].SelfNS != w {
			t.Errorf("span %d (%s) self = %d, want %d", i, spans[i].Name, spans[i].SelfNS, w)
		}
	}
}

func TestTracerRecordsAndWrites(t *testing.T) {
	var off *tracer
	if id := off.begin("x", -1, 0); id != -1 {
		t.Fatalf("nil tracer begin = %d", id)
	}
	off.end(-1, nil) // must not panic

	tr := newTracer("w")
	root := tr.begin("batch", -1, 7)
	kid := tr.begin("layer.0", root, 7)
	tr.end(kid, map[string]int64{"reads": 3})
	tr.end(root, nil)
	open := tr.begin("batch", -1, 8) // never closed: excluded from durations
	_ = open
	if got := len(tr.durationsMS("batch")); got != 1 {
		t.Errorf("closed batch spans = %d, want 1", got)
	}
	if sums, n := tr.spanSums("layer.0"); n != 1 || sums["reads"] != 3 {
		t.Errorf("spanSums = %v, %d", sums, n)
	}
	if cov := tr.childCoverage("batch"); cov <= 0 || cov > 1 {
		t.Errorf("child coverage = %v", cov)
	}

	path := filepath.Join(t.TempDir(), "trace.jsonl")
	if err := tr.write(path); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var lines int
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("line %d: %v", lines, err)
		}
		if s.Workload != "w" {
			t.Errorf("line %d workload %q", lines, s.Workload)
		}
		lines++
	}
	if lines != 3 {
		t.Errorf("trace file has %d spans, want 3", lines)
	}
}
