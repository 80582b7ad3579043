package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
)

// loadHistory reads a history.jsonl: one report summary per line. Only
// untraced, correct runs carry end-to-end metrics worth comparing.
func loadHistory(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	runs := map[string]map[string][]float64{} // workload → metric → values
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rep report
		if err := json.Unmarshal(sc.Bytes(), &rep); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if rep.Trace != 0 || !rep.Correct {
			continue
		}
		if runs[rep.Workload] == nil {
			runs[rep.Workload] = map[string][]float64{}
		}
		for name, v := range rep.Metrics {
			runs[rep.Workload][name] = append(runs[rep.Workload][name], v.Value)
		}
	}
	return runs, sc.Err()
}

// compareHistories prints, for every workload both files hold, how far
// each end-to-end metric's median moved from a to b in the direction
// that is worse, next to the bound BENCHMARK.json allows, and returns 1
// when any bound is breached (ROADMAP item 1's benchcmp).
func compareHistories(pathA, pathB string) int {
	a, err := loadHistory(pathA)
	if err == nil {
		var b map[string]map[string][]float64
		if b, err = loadHistory(pathB); err == nil {
			return printComparison(a, b)
		}
	}
	fmt.Fprintln(os.Stderr, "compare:", err)
	return 2
}

func printComparison(a, b map[string]map[string][]float64) int {
	code := 0
	compared := 0
	fmt.Printf("%-14s %-26s %14s %14s %9s %7s  %s\n", "workload", "metric", "a median", "b median", "worse by", "bound", "verdict")
	for _, w := range workloadNames() {
		if a[w] == nil || b[w] == nil {
			continue
		}
		for _, m := range endToEnd {
			va, vb := a[w][m.name], b[w][m.name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			compared++
			sa, sb := summarize(va), summarize(vb)
			worse := (sb.Median - sa.Median) / sa.Median
			if m.higher {
				worse = -worse
			}
			verdict := "ok"
			switch {
			case worse > m.bound:
				verdict = "REGRESSION"
				code = 1
			case sa.iqrFrac() > m.bound || sb.iqrFrac() > m.bound:
				verdict = "unresolved (spread wider than bound)"
			}
			fmt.Printf("%-14s %-26s %14.6g %14.6g %+8.2f%% %6.1f%%  %s  (n=%d/%d, iqr %.2f%%/%.2f%%)\n",
				w, m.name, sa.Median, sb.Median, 100*worse, 100*m.bound, verdict, sa.N, sb.N, 100*sa.iqrFrac(), 100*sb.iqrFrac())
		}
	}
	if compared == 0 {
		fmt.Fprintln(os.Stderr, "compare: the two histories share no workload")
		return 2
	}
	return code
}
