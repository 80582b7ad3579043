// Command bench is the repository's benchmark: one runner that drives
// five workloads through the public functions of core, train, serve and
// shard, prints the gated end-to-end metrics of an untraced pass and the
// per-layer metrics of a traced pass, and checks sample digests outside
// the timed windows. README.md describes the workloads and how to read
// the output; ../../BENCHMARK.json declares the metric names.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// windowSeconds is what one fixed-work window lasts on the 2-core
// reference box; -seconds is turned into a window count with it, so the
// work of a run is fixed by its flags and never by a clock.
const windowSeconds = 2.2

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workload := fs.String("workload", "all", "workload to run: all, or one of "+fmt.Sprint(workloadNames()))
	seed := fs.Uint64("seed", 1, "seed of the targets, request bodies and sampling seeds (never of the graph)")
	seconds := fs.Int("seconds", 20, "timed seconds per workload; rounded to whole fixed-work windows of about 2.2 s")
	windows := fs.Int("windows", 0, "timed windows per workload (overrides -seconds)")
	trace := fs.Int("trace", 0, "0: untraced pass, end-to-end metrics; 1: traced pass, per-layer metrics; 2: both")
	out := fs.String("out", "out", "directory for reports, history.jsonl and trace files")
	data := fs.String("data", filepath.Join("out", "data"), "directory the generated dataset is kept in")
	compare := fs.Bool("compare", false, "compare two history files: -compare a.jsonl b.jsonl")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare a.jsonl b.jsonl")
			return 2
		}
		return compareHistories(fs.Arg(0), fs.Arg(1))
	}
	names := []string{*workload}
	if *workload == "all" {
		names = workloadNames()
	}
	if *windows <= 0 {
		*windows = max(3, int(float64(*seconds)/windowSeconds+0.5))
	}
	b := &bench{sc: fullScale, seed: *seed, windows: *windows, workers: workerCount(), outDir: *out,
		logf: func(format string, a ...any) { fmt.Fprintf(os.Stderr, format+"\n", a...) }}
	b.clients = clientCount(b.workers)
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	var err error
	if b.data, err = ensureDataset(*data, b.sc, b.logf); err != nil {
		fmt.Fprintln(os.Stderr, "dataset:", err)
		return 1
	}
	code := 0
	for _, name := range names {
		for _, pass := range passes(*trace) {
			rep, err := b.runPass(name, pass)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
			if err := b.emit(rep); err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
			if !rep.Correct {
				code = 1
			}
		}
	}
	return code
}

func passes(trace int) []int {
	if trace == 2 {
		return []int{0, 1}
	}
	return []int{trace}
}

func (b *bench) runPass(name string, trace int) (*report, error) {
	env := b.environment()
	if name == serveShard2 {
		if err := b.data.prereadShards(); err != nil {
			return nil, err
		}
	}
	if trace == 0 {
		return b.runEndToEnd(name, env)
	}
	return b.runTraced(name, env)
}

// emit prints the report for a reader, stores it, appends its summary to
// the history, and ends with the one-line result the driver parses.
func (b *bench) emit(rep *report) error {
	fmt.Printf("== %s  trace=%d  seed=%d  windows=%d", rep.Workload, rep.Trace, rep.Env.Seed, rep.Windows)
	if rep.Trace == 0 {
		fmt.Printf("  timed=%.1fs", rep.TimedS)
	}
	fmt.Printf("  W=%d clients=%d\n", rep.Env.Workers, rep.Env.Clients)
	env, _ := json.Marshal(rep.Env)
	fmt.Printf("env %s comparable=%v\n", env, rep.Comparable)
	names := make([]string, 0, len(rep.Metrics))
	for name := range rep.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := rep.Metrics[name]
		fmt.Printf("  %-40s %16.6g %-6s", name, m.Value, m.Unit)
		if s, ok := rep.Spread[name]; ok {
			fmt.Printf("  %s", s)
		}
		fmt.Println()
	}
	if rep.Fold != "" {
		fmt.Printf("  response_fold %s\n", rep.Fold)
	}
	for _, n := range rep.Notes {
		fmt.Printf("  note: %s\n", n)
	}
	fmt.Printf("  operations attempted %d failed %d correct %v\n", rep.Attempted, rep.Failed, rep.Correct)

	full, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(b.outDir, fmt.Sprintf("report-%s-trace%d.json", rep.Workload, rep.Trace))
	if err := os.WriteFile(path, append(full, '\n'), 0o644); err != nil {
		return err
	}
	brief := *rep
	brief.Spread, brief.Notes = nil, nil
	line, err := json.Marshal(&brief)
	if err != nil {
		return err
	}
	h, err := os.OpenFile(filepath.Join(b.outDir, "history.jsonl"), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := h.Write(append(line, '\n')); err != nil {
		h.Close()
		return err
	}
	if err := h.Close(); err != nil {
		return err
	}
	result, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, rep.Metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(result))
	return nil
}
