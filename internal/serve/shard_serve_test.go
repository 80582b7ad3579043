package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ringsampler/internal/core"
	"ringsampler/internal/gen"
	"ringsampler/internal/sample"
	"ringsampler/internal/shard"
	"ringsampler/internal/storage"
	"ringsampler/internal/uring"
)

// startRouter boots a router Server over engines on a loopback
// listener and returns its base URL. Shutdown (which closes the
// engines) is registered as cleanup.
func startRouter(t *testing.T, engines []shard.Engine, cfg Config) string {
	t.Helper()
	srv, err := NewRouter(engines, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return "http://" + ln.Addr().String()
}

// openShard opens one shard dataset with cleanup.
func openShard(t *testing.T, dir string) *storage.Dataset {
	t.Helper()
	sds, err := storage.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sds.Close() })
	return sds
}

// TestShardConformance is the end-to-end conformance gate for the
// in-process router: the same /v1/sample requests against (a) a
// single-node server over the full dataset, (b) a router over 2 local
// shards, one of them on a fault-injected ring, and (c) a router over 4
// local shards. Every response must be byte-identical to the
// single-node one (and to a direct core run) with and without features,
// the strategy field empty or naming uniform, digests included; the faulty shard proves faults are
// absorbed below the determinism contract.
func TestShardConformance(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "g")
	if _, err := gen.GenerateWith(dir, "conform", "rmat", 2_000, 30_000, 11, gen.Options{FeatureDim: testFeatureDim}); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Core.Threads = 2
	cfg.Core.BatchSize = 64
	cfg.Core.Fanouts = []int{6, 4}
	cfg.Core.CacheBudgetBytes = 32 << 10
	cfg.Core.FeatureCacheBudgetBytes = 32 << 10

	ds := openShard(t, dir)
	_, singleBase := startServer(t, ds, cfg)
	client := &http.Client{Timeout: 60 * time.Second}

	rng := sample.NewRNG(61)
	targets := make([]uint32, 150) // 3 chunks
	for i := range targets {
		targets[i] = rng.Uint32n(uint32(ds.NumNodes()))
	}
	targets[3] = targets[4] // duplicates must survive scatter/gather

	type combo struct {
		strategy string
		features bool
	}
	var combos []combo
	for _, st := range []string{"", core.StrategyUniform} {
		for _, f := range []bool{false, true} {
			combos = append(combos, combo{st, f})
		}
	}
	request := func(c combo) sampleRequest {
		return sampleRequest{Targets: targets, Fanouts: []int{6, 4}, Seed: 909, Strategy: c.strategy, Features: c.features}
	}

	// Single-node baselines, checked against the direct core reference.
	baseline := make(map[combo]string)
	for _, c := range combos {
		st, data := postSample(t, client, singleBase, request(c))
		if st != http.StatusOK {
			t.Fatalf("single-node %+v: status %d: %s", c, st, data)
		}
		want := referenceBatches(t, ds, cfg.Core, request(c), cfg.Core.BatchSize)
		assertResponseMatches(t, fmt.Sprintf("single-node %+v", c), data, want)
		var resp sampleResponse
		if err := json.Unmarshal(data, &resp); err != nil {
			t.Fatal(err)
		}
		baseline[c] = resp.Digest
	}

	checkRouter := func(label, routerBase string) {
		t.Helper()
		for _, c := range combos {
			st, data := postSample(t, client, routerBase, request(c))
			if st != http.StatusOK {
				t.Fatalf("%s %+v: status %d: %s", label, c, st, data)
			}
			want := referenceBatches(t, ds, cfg.Core, request(c), cfg.Core.BatchSize)
			assertResponseMatches(t, fmt.Sprintf("%s %+v", label, c), data, want)
			var resp sampleResponse
			if err := json.Unmarshal(data, &resp); err != nil {
				t.Fatal(err)
			}
			if resp.Digest != baseline[c] {
				t.Fatalf("%s %+v: digest %s != single-node %s", label, c, resp.Digest, baseline[c])
			}
		}
	}

	// Router topologies: every shard runs in-process on the given
	// per-shard config.
	faulty := cfg.Core
	faulty.WrapRing = func(r uring.Ring, workerID int) (uring.Ring, error) {
		return uring.NewFault(r, uring.FaultPlan{
			Seed: 5, ShortReadRate: 0.2, TransientRate: 0.1, DelayRate: 0.2, MaxDelay: 4,
		})
	}
	for _, topo := range []struct {
		label  string
		shards int
		local  func(i int) core.Config
	}{
		{"2-shard router (plain + faulty)", 2, func(i int) core.Config {
			if i == 1 {
				return faulty
			}
			return cfg.Core
		}},
		{"4-shard router", 4, func(int) core.Config { return cfg.Core }},
	} {
		dirs, err := gen.Partition(dir, filepath.Join(t.TempDir(), "p"), topo.shards)
		if err != nil {
			t.Fatal(err)
		}
		engines := make([]shard.Engine, len(dirs))
		for i, sdir := range dirs {
			if engines[i], err = shard.NewLocal(openShard(t, sdir), topo.local(i), uring.BackendPool); err != nil {
				t.Fatal(err)
			}
		}
		routerBase := startRouter(t, engines, cfg)
		checkRouter(topo.label, routerBase)

		// Router observability: /metrics counts the requests.
		body := scrapeMetrics(t, client, routerBase)
		if got := metricValue(t, body, "ringsampler_serve_responses_ok_total"); got != float64(len(combos)) {
			t.Fatalf("%s: router responses_ok_total = %v, want %d", topo.label, got, len(combos))
		}
	}
}

// TestNewRefusesShardDataset: a server over one shard of a partition
// would answer whole-graph requests from a slice of the edges, so New
// refuses it with an error that names the shard.
func TestNewRefusesShardDataset(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "g")
	if _, err := gen.Generate(dir, "refuse", "rmat", 1_000, 10_000, 7); err != nil {
		t.Fatal(err)
	}
	dirs, err := gen.Partition(dir, filepath.Join(t.TempDir(), "p"), 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Core.Threads = 1
	srv, err := New(openShard(t, dirs[1]), cfg)
	if err == nil {
		srv.Shutdown(context.Background())
		t.Fatal("New accepted a shard dataset")
	}
	if !strings.Contains(err.Error(), "shard 1/2") {
		t.Fatalf("refusal %q does not name the shard", err)
	}
}
