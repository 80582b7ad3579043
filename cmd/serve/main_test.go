package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"ringsampler/internal/core"
	"ringsampler/internal/gen"
	"ringsampler/internal/sample"
	"ringsampler/internal/storage"
	"ringsampler/internal/uring"
)

// TestRunBadFlags: flag-level errors fail fast with one line naming the
// flag — before any graph is generated, and never with a byte count
// that wrapped negative.
func TestRunBadFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string // must appear in the error
	}{
		{[]string{"-backend", "floppy"}, `unknown backend "floppy"`},
		{[]string{"-cache-mb", "-1"}, "-cache-mb -1"},
		{[]string{"-cache-mb", "9000000000000"}, "-cache-mb 9000000000000"},
		{[]string{"-feature-cache-mb", "-1"}, "-feature-cache-mb -1"},
		{[]string{"-feature-cache-mb", "9000000000000"}, "-feature-cache-mb 9000000000000"},
		{[]string{"-threads", "-3"}, "-threads -3"},
		{[]string{"-batch", "-1"}, "-batch -1"},
	} {
		var sb strings.Builder
		err := run(context.Background(), tc.args, &sb)
		if err == nil {
			t.Fatalf("%v accepted", tc.args)
		}
		if msg := err.Error(); !strings.Contains(msg, tc.want) || strings.Contains(msg, "\n") {
			t.Fatalf("%v: error %q, want one line naming %q", tc.args, msg, tc.want)
		}
		if sb.Len() != 0 {
			t.Fatalf("%v: work started before the flag was rejected:\n%s", tc.args, sb.String())
		}
	}
	// The largest MiB value that fits is a budget, not an error.
	if _, err := mibFlag("-cache-mb", math.MaxInt64>>20); err != nil {
		t.Fatal(err)
	}
}

// runOutput collects run's output and announces the base URL once the
// "serving on" line is printed.
type runOutput struct {
	mu   sync.Mutex
	buf  strings.Builder
	base chan string
}

var servingLine = regexp.MustCompile(`serving on (http://[0-9.:]+)`)

func (o *runOutput) Write(p []byte) (int, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.buf.Write(p)
	if m := servingLine.FindSubmatch(p); m != nil {
		o.base <- string(m[1])
	}
	return len(p), nil
}

func (o *runOutput) String() string {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.buf.String()
}

// TestRunServesAndDrains drives the command past flag parsing in its two
// dataset-backed modes: it serves a temporary graph on a loopback port,
// answers /healthz, answers one /v1/sample whose digest equals a direct
// core run over the same files (single-node and through the in-process
// 2-shard router alike), and drains cleanly when its context ends.
func TestRunServesAndDrains(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "g")
	if _, err := gen.GenerateWith(dir, "cli-test", "rmat", 2000, 30000, 11,
		gen.Options{FeatureDim: 8, NumClasses: 4}); err != nil {
		t.Fatal(err)
	}
	const batch = 64
	req := struct {
		Targets []uint32 `json:"targets"`
		Fanouts []int    `json:"fanouts"`
		Seed    uint64   `json:"seed"`
	}{Fanouts: []int{5, 5}, Seed: 77}
	rng := sample.NewRNG(3)
	for i := 0; i < 100; i++ { // two chunks at -batch 64
		req.Targets = append(req.Targets, rng.Uint32n(2000))
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}

	// The direct core run: one seeded batch per chunk, digests folded the
	// way the response folds them.
	ds, err := storage.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	s, err := core.New(ds, core.DefaultConfig(), uring.BackendPool)
	if err != nil {
		t.Fatal(err)
	}
	w, err := s.NewWorker(0)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	var folded uint64
	for ci := 0; ci*batch < len(req.Targets); ci++ {
		b, err := w.SampleBatchOpts(req.Targets[ci*batch:min((ci+1)*batch, len(req.Targets))],
			core.BatchOpts{Fanouts: req.Fanouts, Seed: sample.Mix(req.Seed, uint64(ci))})
		if err != nil {
			t.Fatal(err)
		}
		folded = folded*0x100000001b3 ^ b.Digest()
	}
	want := fmt.Sprintf("%016x", folded)

	for _, tc := range []struct {
		name    string
		extra   []string
		wantLog []string
	}{
		{"single-node", nil, []string{"features: 8-dim f32", "labels: 4 classes", "2 workers"}},
		{"shards=2", []string{"-shards", "2"}, []string{"shard 1/2: nodes [", "routing 2 shards: 2000 nodes, 30000 edges"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			out := &runOutput{base: make(chan string, 1)}
			done := make(chan error, 1)
			go func() {
				done <- run(ctx, append([]string{
					"-data", dir, "-addr", "127.0.0.1:0", "-backend", "pool",
					"-threads", "2", "-batch", fmt.Sprint(batch),
				}, tc.extra...), out)
			}()
			var base string
			select {
			case base = <-out.base:
			case err := <-done:
				t.Fatalf("run returned before serving: %v\n%s", err, out)
			case <-time.After(30 * time.Second):
				t.Fatalf("no listen address after 30s:\n%s", out)
			}
			for _, line := range tc.wantLog {
				if !strings.Contains(out.String(), line) {
					t.Fatalf("startup log missing %q:\n%s", line, out)
				}
			}

			client := &http.Client{Timeout: 30 * time.Second}
			resp, err := client.Get(base + "/healthz")
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("/healthz: status %d", resp.StatusCode)
			}
			resp, err = client.Post(base+"/v1/sample", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			var got struct {
				Digest  string            `json:"digest"`
				Batches []json.RawMessage `json:"batches"`
				Error   string            `json:"error"`
			}
			err = json.NewDecoder(resp.Body).Decode(&got)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("/v1/sample: status %d, decode error %v, server error %q", resp.StatusCode, err, got.Error)
			}
			if len(got.Batches) != 2 || got.Digest != want {
				t.Fatalf("/v1/sample: %d batches, digest %s; the direct core run has 2 batches, digest %s",
					len(got.Batches), got.Digest, want)
			}

			cancel()
			select {
			case err := <-done:
				if err != nil {
					t.Fatalf("drain: %v\n%s", err, out)
				}
			case <-time.After(30 * time.Second):
				t.Fatalf("run did not drain within 30s of cancellation:\n%s", out)
			}
			if !strings.Contains(out.String(), "drained; final io") {
				t.Fatalf("drain did not flush the final counters:\n%s", out)
			}
			if _, err := client.Get(base + "/healthz"); err == nil {
				t.Fatal("listener still accepting after the drain")
			}
		})
	}
}
