package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
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
// listener. Shutdown (which closes the engines) is registered as
// cleanup.
func startRouter(t *testing.T, engines []shard.Engine, cfg Config) (*Server, string) {
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
	return srv, "http://" + ln.Addr().String()
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

// TestShardConformance is the end-to-end conformance gate: the same
// /v1/sample requests against (a) a single-node server over the full
// dataset, (b) a router over 2 shards — one reached over live HTTP
// (Remote), one in-process (Local) with a fault-injected ring — (c) a
// router over 4 shard servers, all Remote, and (d) a router over 4
// in-process shards, all Local. Every response must be byte-identical
// to the single-node one (and to a direct core run) across strategies ×
// features, digests included. Mixing Local and Remote in one partition
// is the interchangeability proof for the Engine seam; the faulty shard
// proves faults are absorbed below the determinism contract.
func TestShardConformance(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "g")
	if _, err := gen.GenerateWith(dir, "conform", "rmat", 2_000, 30_000, 11, gen.Options{FeatureDim: testFeatureDim}); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Backend = uring.BackendPool
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
	for _, st := range []string{core.StrategyUniform, core.StrategyWeighted, core.StrategyWalk} {
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
		want := referenceBatches(t, ds, cfg.Core, cfg.Backend, request(c), cfg.Core.BatchSize)
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
			want := referenceBatches(t, ds, cfg.Core, cfg.Backend, request(c), cfg.Core.BatchSize)
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

	// Router topologies. A remote shard sits behind its own live shard
	// server over HTTP; a local one runs in-process on the given config.
	// The last row is what `cmd/serve -shards 4` builds.
	faulty := cfg.Core
	faulty.WrapRing = func(r uring.Ring, workerID int) (uring.Ring, error) {
		return uring.NewFault(r, uring.FaultPlan{
			Seed: 5, ShortReadRate: 0.2, TransientRate: 0.1, DelayRate: 0.2, MaxDelay: 4,
		})
	}
	for _, topo := range []struct {
		label  string
		shards int
		remote func(i int) bool
		local  core.Config
	}{
		{"2-shard router (remote + faulty local)", 2, func(i int) bool { return i == 0 }, faulty},
		{"4-shard router (all remote)", 4, func(int) bool { return true }, cfg.Core},
		{"4-shard router (all local)", 4, func(int) bool { return false }, cfg.Core},
	} {
		dirs, err := gen.Partition(dir, filepath.Join(t.TempDir(), "p"), topo.shards)
		if err != nil {
			t.Fatal(err)
		}
		engines := make([]shard.Engine, len(dirs))
		var shardBases []string
		for i, sdir := range dirs {
			sds := openShard(t, sdir)
			if !topo.remote(i) {
				if engines[i], err = shard.NewLocal(sds, topo.local, uring.BackendPool); err != nil {
					t.Fatal(err)
				}
				continue
			}
			_, shardBase := startServer(t, sds, cfg)
			remote, err := shard.NewRemote(context.Background(), shardBase, client)
			if err != nil {
				t.Fatal(err)
			}
			if got := remote.Info(); got.Index != i || got.Total != topo.shards {
				t.Fatalf("%s: remote shard identity %+v, want shard %d/%d", topo.label, got, i, topo.shards)
			}
			engines[i] = remote
			shardBases = append(shardBases, shardBase)
		}
		rs, routerBase := startRouter(t, engines, cfg)
		checkRouter(topo.label, routerBase)
		if rs.Router().Shards() != topo.shards {
			t.Fatalf("%s: router has %d shards", topo.label, rs.Router().Shards())
		}

		// Router observability: /metrics counts the requests, and every
		// shard server's own metrics show shard-protocol traffic.
		body := scrapeMetrics(t, client, routerBase)
		if got := metricValue(t, body, "ringsampler_serve_responses_ok_total"); got != float64(len(combos)) {
			t.Fatalf("%s: router responses_ok_total = %v, want %d", topo.label, got, len(combos))
		}
		for _, shardBase := range shardBases {
			sbody := scrapeMetrics(t, client, shardBase)
			if got := metricValue(t, sbody, "ringsampler_serve_shard_calls_total"); got <= 0 {
				t.Fatalf("%s: shard server %s served %v shard calls, want > 0", topo.label, shardBase, got)
			}
		}
	}
}

// TestShardServerEndpoints: a shard server refuses whole-graph
// /v1/sample (the request would silently miss every non-owned edge)
// and validates shard-protocol bodies before touching a worker.
func TestShardServerEndpoints(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "g")
	if _, err := gen.GenerateWith(dir, "endp", "rmat", 1_000, 10_000, 7, gen.Options{FeatureDim: 3}); err != nil {
		t.Fatal(err)
	}
	dirs, err := gen.Partition(dir, filepath.Join(t.TempDir(), "p"), 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Backend = uring.BackendPool
	cfg.Core.Threads = 1
	sds := openShard(t, dirs[1])
	_, base := startServer(t, sds, cfg)
	client := &http.Client{Timeout: 15 * time.Second}

	// Whole-graph sampling on a shard is a 400 naming the condition.
	st, data := postSample(t, client, base, sampleRequest{Targets: []uint32{1}, Fanouts: []int{4}, Seed: 1})
	if st != http.StatusBadRequest {
		t.Fatalf("/v1/sample on a shard: status %d, want 400: %s", st, data)
	}
	var er errorResponse
	if err := json.Unmarshal(data, &er); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(er.Error, "shard") || !strings.Contains(er.Error, "router") {
		t.Fatalf("shard rejection %q names neither the shard nor the router", er.Error)
	}

	// /v1/shard/info reports the manifest's identity.
	resp, err := client.Get(base + "/v1/shard/info")
	if err != nil {
		t.Fatal(err)
	}
	var info shard.Info
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	lo, hi := sds.ShardRange()
	if info.Index != 1 || info.Total != 2 || info.Lo != lo || info.Hi != hi || info.NumNodes != sds.NumNodes() {
		t.Fatalf("shard info %+v disagrees with the dataset (range [%d,%d))", info, lo, hi)
	}

	post := func(path string, body any) (int, []byte) {
		t.Helper()
		buf, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.Post(base+path, "application/json", strings.NewReader(string(buf)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out []byte
		out = make([]byte, 0, 512)
		b := make([]byte, 512)
		for {
			n, rerr := resp.Body.Read(b)
			out = append(out, b[:n]...)
			if rerr != nil {
				break
			}
		}
		return resp.StatusCode, out
	}

	// Shard-protocol validation: bad RNG state, implicit strategy, and
	// non-owned feature nodes are all 400s.
	for name, tc := range map[string]struct {
		path string
		body any
	}{
		"bad rng state": {"/v1/shard/layer", shard.LayerRequest{
			Frontier: []uint32{uint32(lo)}, Fanout: 4, Strategy: core.StrategyUniform, RNGState: "not-hex"}},
		"empty strategy": {"/v1/shard/layer", shard.LayerRequest{
			Frontier: []uint32{uint32(lo)}, Fanout: 4, RNGState: shard.EncodeState(1)}},
		"non-owned feature node": {"/v1/shard/features", shard.FeaturesRequest{Nodes: []uint32{uint32(lo) - 1}}},
	} {
		st, data := post(tc.path, tc.body)
		if st != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400: %s", name, st, data)
		}
	}

	// A well-formed layer call answers with the full frontier layout and
	// a threaded RNG state.
	frontier := []uint32{0, uint32(lo), uint32(hi - 1)} // node 0 is non-owned: zero-filled span
	st, data = post("/v1/shard/layer", shard.LayerRequest{
		Frontier: frontier, Fanout: 4, Strategy: core.StrategyUniform,
		RNGState: shard.EncodeState(core.ChunkSeedState(33)),
	})
	if st != http.StatusOK {
		t.Fatalf("layer call: status %d: %s", st, data)
	}
	var lresp shard.LayerResponse
	if err := json.Unmarshal(data, &lresp); err != nil {
		t.Fatal(err)
	}
	if len(lresp.Starts) != len(frontier)+1 {
		t.Fatalf("layer has %d starts for a %d-node frontier", len(lresp.Starts), len(frontier))
	}
	if _, err := shard.ParseState(lresp.RNGState); err != nil {
		t.Fatalf("layer response carries a bad RNG state: %v", err)
	}
}

// lockedBuffer is an io.Writer safe to read while a server logs to it.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestShardCallsUseThePool: shard-protocol calls are jobs on the
// server's one admission queue and pinned pool. 16 concurrent layer
// calls on a 1-thread server build rings for exactly one worker id —
// the pool slot's — never a worker per call. A forced drain during
// such calls returns cleanly: they enqueue, so Shutdown must count them
// before it closes the queue, and no handler may panic on a send to a
// closed queue; queue_depth and inflight land back at zero.
func TestShardCallsUseThePool(t *testing.T) {
	ds := testDataset(t)
	var mu sync.Mutex
	ids := make(map[int]bool)
	cfg := DefaultConfig()
	cfg.Backend = uring.BackendPool
	cfg.Core.Threads = 1
	cfg.Core.WrapRing = func(r uring.Ring, workerID int) (uring.Ring, error) {
		mu.Lock()
		ids[workerID] = true
		mu.Unlock()
		return &slowRing{Ring: r, delay: 2 * time.Millisecond}, nil
	}
	srv, err := New(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var serverLog lockedBuffer
	srv.http.ErrorLog = log.New(&serverLog, "", 0)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	base := "http://" + ln.Addr().String()
	client := &http.Client{Timeout: 60 * time.Second}

	// layerCalls fires n concurrent layer calls; a status of 0 is a
	// transport error (a forced drain may sever the connection).
	rng := sample.NewRNG(71)
	layerCalls := func(n int) (statuses []int, wait func()) {
		statuses = make([]int, n)
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			frontier := make([]uint32, 32)
			for j := range frontier {
				frontier[j] = rng.Uint32n(uint32(ds.NumNodes()))
			}
			body, err := json.Marshal(shard.LayerRequest{
				Frontier: frontier, Fanout: 8, Strategy: core.StrategyUniform,
				RNGState: shard.EncodeState(core.ChunkSeedState(uint64(i))),
			})
			if err != nil {
				t.Fatal(err)
			}
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				resp, err := client.Post(base+"/v1/shard/layer", "application/json", bytes.NewReader(body))
				if err != nil {
					return
				}
				resp.Body.Close()
				statuses[i] = resp.StatusCode
			}(i)
		}
		return statuses, wg.Wait
	}

	statuses, wait := layerCalls(16)
	wait()
	for i, st := range statuses {
		if st != http.StatusOK {
			t.Fatalf("layer call %d: status %d", i, st)
		}
	}
	mu.Lock()
	got := len(ids)
	mu.Unlock()
	if got != 1 {
		t.Fatalf("16 concurrent layer calls on a 1-thread server built rings for %d worker ids, want 1 (the pool slot's)", got)
	}

	// Forced drain once all 16 more are admitted, most of them queued
	// behind the slow worker.
	_, wait = layerCalls(16)
	for srv.met.shardCalls.Load() < 32 {
		time.Sleep(100 * time.Microsecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	done := make(chan struct{})
	go func() {
		srv.Shutdown(ctx)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("forced shutdown hung")
	}
	wait()
	if got := srv.met.queueDepth.Load(); got != 0 {
		t.Fatalf("queue_depth gauge = %d after forced shutdown, want 0", got)
	}
	if got := srv.met.inflight.Load(); got != 0 {
		t.Fatalf("inflight gauge = %d after forced shutdown, want 0", got)
	}
	if strings.Contains(serverLog.String(), "panic") {
		t.Fatalf("a handler panicked during the forced drain:\n%s", serverLog.String())
	}
}
