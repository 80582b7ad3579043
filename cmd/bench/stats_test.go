package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

// The expected quartiles are Python's statistics.quantiles(xs, n=4), the
// rule the acceptance check applies to the same values.
func TestQuartilesMatchPythonExclusive(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{4, 1, 3, 2}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{2, 1}, [3]float64{0.75, 1.5, 2.25}}, // extrapolates past both ends
		{[]float64{7}, [3]float64{7, 7, 7}},
	} {
		s := summarize(c.xs)
		got := [3]float64{s.Q1, s.Median, s.Q3}
		for i := range got {
			if !near(got[i], c.want[i]) {
				t.Errorf("summarize(%v) quartiles = %v, want %v", c.xs, got, c.want)
				break
			}
		}
		if s.N != len(c.xs) {
			t.Errorf("summarize(%v).N = %d", c.xs, s.N)
		}
	}
}

func TestSummarizeLeavesInputAlone(t *testing.T) {
	xs := []float64{3, 1, 2}
	s := summarize(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("summarize sorted its input: %v", xs)
	}
	if s.Min != 1 || s.Max != 3 || s.Median != 2 {
		t.Errorf("summary = %+v", s)
	}
	if got := s.iqrFrac(); !near(got, (3.0-1.0)/2) {
		t.Errorf("iqrFrac = %v", got)
	}
	if (summary{}).iqrFrac() != 0 || summarize(nil).N != 0 {
		t.Error("empty summary must be all zero")
	}
}
