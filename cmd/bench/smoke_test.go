package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// benchmarkFile mirrors ../../BENCHMARK.json.
type benchmarkFile struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

type declared struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSmokeNoDrift runs every workload through both passes on a 20k-node
// graph with one tiny window, and holds the runner to BENCHMARK.json:
// each declared name is emitted exactly once per pass (report.set panics
// on a second emission), with the declared unit, and nothing undeclared
// is emitted.
func TestSmokeNoDrift(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all five workloads; skipped with -short")
	}
	bf := loadBenchmarkFile(t)
	tmp := t.TempDir()
	b := &bench{sc: tinyScale, seed: 3, windows: 2, workers: workerCount(), outDir: tmp, logf: t.Logf}
	b.clients = clientCount(b.workers)
	var err error
	if b.data, err = ensureDataset(filepath.Join(tmp, "data"), b.sc, t.Logf); err != nil {
		t.Fatal(err)
	}
	if again, err := ensureDataset(filepath.Join(tmp, "data"), b.sc, t.Logf); err != nil || again.ID != b.data.ID {
		t.Fatalf("dataset not reused: %v", err)
	}
	for _, name := range workloadNames() {
		for pass, want := range [][]declared{bf.EndToEnd, bf.PerLayer} {
			rep, err := b.runPass(name, pass)
			if err != nil {
				t.Fatalf("%s trace=%d: %v", name, pass, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Errorf("%s trace=%d: attempted %d failed %d notes %v", name, pass, rep.Attempted, rep.Failed, rep.Notes)
			}
			seen := map[string]bool{}
			for _, d := range want {
				seen[d.Name] = true
				if !nameRE.MatchString(d.Name) {
					t.Errorf("declared name %q is not a valid metric name", d.Name)
				}
				got, ok := rep.Metrics[d.Name]
				if !ok {
					t.Errorf("%s trace=%d: declared metric %s not emitted", name, pass, d.Name)
					continue
				}
				if got.Unit != d.Unit || got.Unit == "" {
					t.Errorf("%s trace=%d: %s emitted with unit %q, declared %q", name, pass, d.Name, got.Unit, d.Unit)
				}
			}
			for emitted := range rep.Metrics {
				if !seen[emitted] {
					t.Errorf("%s trace=%d: emitted metric %s is not declared in BENCHMARK.json", name, pass, emitted)
				}
			}
			if pass == 1 {
				if _, err := os.Stat(filepath.Join(tmp, "trace-"+name+".jsonl")); err != nil {
					t.Errorf("%s: no trace file: %v", name, err)
				}
			}
		}
	}
}

// TestDeclarationsAgree checks the parts of BENCHMARK.json that mirror
// tables in this package: the workload list and the end-to-end metrics
// with their direction and bound.
func TestDeclarationsAgree(t *testing.T) {
	bf := loadBenchmarkFile(t)
	known := map[string]bool{}
	for _, n := range workloadNames() {
		known[n] = true
	}
	for _, w := range bf.Workloads {
		if !known[w.Name] {
			t.Errorf("BENCHMARK.json workload %q is unknown to the runner", w.Name)
		}
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the runner %d", len(bf.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		d := bf.EndToEnd[i]
		better := "lower"
		if m.higher {
			better = "higher"
		}
		if d.Name != m.name || d.Unit != m.unit || d.Better != better || d.Bound != m.bound {
			t.Errorf("end_to_end[%d] = %+v, runner has %+v", i, d, m)
		}
	}
}

func TestCompareFlagsRegression(t *testing.T) {
	mk := func(tps float64) map[string]map[string][]float64 {
		return map[string]map[string][]float64{epochHot: {
			"targets_per_s": {tps, tps * 1.01, tps * 0.99}, "setup_s": {0.2, 0.2, 0.2},
			"device_bytes_per_target": {500, 500, 500}, "latency_p50_ms": {10, 10, 10},
		}}
	}
	bound := endToEnd[0].bound // targets_per_s
	if code := printComparison(mk(1000), mk(1000*(1-bound/2))); code != 0 {
		t.Errorf("half the bound slower: exit %d, want 0", code)
	}
	if code := printComparison(mk(1000), mk(1000*(1-bound*1.2))); code != 1 {
		t.Errorf("slower by more than the bound: exit %d, want 1", code)
	}
	if code := printComparison(mk(1000), map[string]map[string][]float64{}); code != 2 {
		t.Errorf("disjoint histories: exit %d, want 2", code)
	}
}
