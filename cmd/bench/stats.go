package main

import (
	"fmt"
	"sort"
)

// summary is the spread of one timing metric over its samples (windows,
// requests, set-up repetitions): the median is the reported value, the
// rest is printed beside it so a reader sees how steady the run was.
type summary struct {
	N      int     `json:"n"`
	Min    float64 `json:"min"`
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
	Max    float64 `json:"max"`
}

// quantile returns the p-quantile (0 < p < 1) of an ascending slice by
// the "exclusive" rule of Python's statistics.quantiles — position
// p·(n+1) with linear interpolation, extrapolating from the end pair
// when the position falls outside — so the quartiles printed here are
// the ones the acceptance check computes from the same values.
func quantile(sorted []float64, p float64) float64 {
	n := len(sorted)
	switch n {
	case 0:
		return 0
	case 1:
		return sorted[0]
	}
	pos := p * float64(n+1)
	j := int(pos)
	if j < 1 {
		j = 1
	}
	if j > n-1 {
		j = n - 1
	}
	frac := pos - float64(j)
	return sorted[j-1]*(1-frac) + sorted[j]*frac
}

// summarize sorts a copy of xs and returns its five-number summary.
func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return summary{
		N:      len(s),
		Min:    s[0],
		Q1:     quantile(s, 0.25),
		Median: quantile(s, 0.5),
		Q3:     quantile(s, 0.75),
		Max:    s[len(s)-1],
	}
}

// iqrFrac is the interquartile range as a share of the median — the
// spread figure every bound in BENCHMARK.json is judged against.
func (s summary) iqrFrac() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / s.Median
}

func (s summary) String() string {
	return fmt.Sprintf("median %.6g  [min %.6g  q1 %.6g  q3 %.6g  max %.6g]  n=%d  iqr/median %.2f%%",
		s.Median, s.Min, s.Q1, s.Q3, s.Max, s.N, 100*s.iqrFrac())
}

// percentile returns the p-quantile of xs in any order (0 when empty).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, p)
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }
