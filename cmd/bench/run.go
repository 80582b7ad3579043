package main

import (
	"fmt"
	"strings"
	"time"
)

// metricDef declares one metric the harness emits. BENCHMARK.json lists
// the same names; the smoke test fails when the two drift apart.
type metricDef struct {
	name, unit string
	higher     bool    // better: higher
	bound      float64 // end-to-end only: share of the median it may worsen by
}

// endToEnd are the gated metrics, the same four on every workload.
var endToEnd = []metricDef{
	{"targets_per_s", "1/s", true, 0.25},
	{"device_bytes_per_target", "B", false, 0.01},
	{"latency_p50_ms", "ms", false, 0.25},
	{"setup_s", "s", false, 0.25},
}

// value is one emitted metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what one pass over one workload produced; it is printed,
// written to <out>/report-<workload>-trace<n>.json and appended, without
// the spreads, to <out>/history.jsonl.
type report struct {
	Workload   string             `json:"workload"`
	Trace      int                `json:"trace"`
	Env        environment        `json:"env"`
	Comparable bool               `json:"comparable"`
	Windows    int                `json:"windows"`
	TimedS     float64            `json:"timed_s"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	Correct    bool               `json:"correct"`
	Notes      []string           `json:"notes,omitempty"`
	Metrics    map[string]value   `json:"metrics"`
	Spread     map[string]summary `json:"spread,omitempty"`
	// Fold is the order-independent fold of every timed response digest
	// of a serve workload: a pure function of (seed, windows), which the
	// traced pass must reproduce.
	Fold string `json:"response_fold,omitempty"`
}

func (r *report) set(name, unit string, v float64) {
	if _, dup := r.Metrics[name]; dup {
		panic("metric emitted twice: " + name)
	}
	r.Metrics[name] = value{Value: v, Unit: unit}
}

func (r *report) fail(format string, args ...any) {
	r.Failed++
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// expect counts one checked operation, failed unless ok.
func (r *report) expect(ok bool, format string, args ...any) {
	r.Attempted++
	if !ok {
		r.fail(format, args...)
	}
}

// setupReps: one discarded repetition, then five whose median is setup_s.
const setupReps = 5

// runEndToEnd is the untraced pass: set-up timing, one discarded warm-up
// window, the timed fixed-work windows, then the correctness checks.
func (b *bench) runEndToEnd(name string, env environment) (*report, error) {
	rep := &report{Workload: name, Env: env, Comparable: env.Backend == "io_uring", Windows: b.windows,
		Metrics: map[string]value{}, Spread: map[string]summary{}}

	var setups []float64
	for i := 0; i <= setupReps; i++ {
		t0 := time.Now()
		r, err := b.open(name)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", name, err)
		}
		if err := r.close(); err != nil {
			return nil, fmt.Errorf("%s: close: %w", name, err)
		}
		if i > 0 {
			setups = append(setups, time.Since(t0).Seconds())
		}
	}

	r, err := b.open(name)
	if err != nil {
		return nil, fmt.Errorf("%s: open: %w", name, err)
	}
	defer r.close()
	if _, err := r.window(-1, nil); err != nil {
		return nil, fmt.Errorf("%s: warm-up window: %w", name, err)
	}

	var tps, lat []float64
	var w0 windowResult
	var fold uint64
	for i := 0; i < b.windows; i++ {
		res, err := r.window(i, nil)
		rep.Attempted += res.ops
		rep.Failed += res.failed
		if err != nil {
			rep.Notes = append(rep.Notes, fmt.Sprintf("window %d: %v", i, err))
			continue
		}
		if i == 0 {
			w0 = res
		}
		rep.TimedS += res.seconds
		tps = append(tps, float64(res.targets)/res.seconds)
		b.logf("%s window %d: %d targets in %.3fs", name, i, res.targets, res.seconds)
		lat = append(lat, res.latMS...)
		fold ^= res.fold
	}
	if len(tps) == 0 {
		return nil, fmt.Errorf("%s: no window completed: %s", name, strings.Join(rep.Notes, "; "))
	}
	devBytes, devTargets, err := r.device()
	if err != nil || devTargets == 0 {
		return nil, fmt.Errorf("%s: device counters over %d targets: %v", name, devTargets, err)
	}
	r.check(w0, rep)
	if fold != 0 {
		rep.Fold = fmt.Sprintf("%016x", fold)
	}

	rep.Spread["targets_per_s"] = summarize(tps)
	rep.Spread["latency_p50_ms"] = summarize(lat)
	rep.Spread["setup_s"] = summarize(setups)
	rep.set("targets_per_s", "1/s", rep.Spread["targets_per_s"].Median)
	rep.set("device_bytes_per_target", "B", float64(devBytes)/float64(devTargets))
	rep.set("latency_p50_ms", "ms", rep.Spread["latency_p50_ms"].Median)
	rep.set("setup_s", "s", rep.Spread["setup_s"].Median)
	rep.Correct = rep.Failed == 0
	return rep, nil
}
