package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"ringsampler/internal/core"
	"ringsampler/internal/gen"
	"ringsampler/internal/sample"
	"ringsampler/internal/storage"
	"ringsampler/internal/uring"
)

func testDataset(t testing.TB) *storage.Dataset {
	t.Helper()
	dir := t.TempDir()
	if _, err := gen.Generate(dir, "tiny", "rmat", 2_000, 30_000, 11); err != nil {
		t.Fatal(err)
	}
	ds, err := storage.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ds.Close() })
	return ds
}

// testFeatureDataset is testDataset plus a per-node f32 feature file,
// for the feature-serving paths.
const testFeatureDim = 6

func testFeatureDataset(t testing.TB) *storage.Dataset {
	t.Helper()
	dir := t.TempDir()
	if _, err := gen.GenerateWith(dir, "tiny", "rmat", 2_000, 30_000, 11,
		gen.Options{FeatureDim: testFeatureDim}); err != nil {
		t.Fatal(err)
	}
	ds, err := storage.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ds.Close() })
	return ds
}

// startServer boots srv on a loopback listener and returns its base
// URL. Shutdown is registered as cleanup (idempotent, so tests that
// shut down explicitly are fine).
func startServer(t *testing.T, ds *storage.Dataset, cfg Config) (*Server, string) {
	t.Helper()
	srv, err := New(ds, cfg)
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

func postSample(t *testing.T, client *http.Client, base string, req sampleRequest) (int, []byte) {
	t.Helper()
	return postSamplePath(t, client, base, "/v1/sample", req)
}

// postSamplePath posts to an explicit path (so tests can exercise the
// ?features=true query-parameter form of the feature switch).
func postSamplePath(t *testing.T, client *http.Client, base, path string, req sampleRequest) (int, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

// referenceBatches computes what the determinism contract promises for
// one request: a direct single-threaded core run on the deterministic
// sim ring (the server runs on the probed backend), chunked at the
// engine batch size, chunk i seeded sample.Mix(seed, i).
func referenceBatches(t *testing.T, ds *storage.Dataset, coreCfg core.Config, req sampleRequest, chunkSize int) []*core.Batch {
	t.Helper()
	cfg := coreCfg
	cfg.WrapRing = nil
	s, err := core.New(ds, cfg, uring.BackendSim)
	if err != nil {
		t.Fatal(err)
	}
	w, err := s.NewWorker(0)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	fanouts := req.Fanouts
	if len(fanouts) == 0 {
		fanouts = cfg.Fanouts
	}
	var out []*core.Batch
	for ci := 0; ci*chunkSize < len(req.Targets); ci++ {
		lo := ci * chunkSize
		hi := lo + chunkSize
		if hi > len(req.Targets) {
			hi = len(req.Targets)
		}
		b, err := w.SampleBatchOpts(req.Targets[lo:hi], core.BatchOpts{
			Fanouts:  fanouts,
			Seed:     sample.Mix(req.Seed, uint64(ci)),
			Features: req.Features,
		})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, b)
	}
	return out
}

func assertResponseMatches(t *testing.T, label string, data []byte, want []*core.Batch) {
	t.Helper()
	var resp sampleResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		t.Fatalf("%s: bad response JSON: %v", label, err)
	}
	if len(resp.Batches) != len(want) {
		t.Fatalf("%s: got %d batches, want %d", label, len(resp.Batches), len(want))
	}
	var folded uint64
	for bi, wb := range want {
		gb := resp.Batches[bi]
		if len(gb.Layers) != len(wb.Layers) {
			t.Fatalf("%s: batch %d has %d layers, want %d", label, bi, len(gb.Layers), len(wb.Layers))
		}
		for li := range wb.Layers {
			wl, gl := &wb.Layers[li], &gb.Layers[li]
			if len(gl.Targets) != len(wl.Targets) || len(gl.Starts) != len(wl.Starts) || len(gl.Neighbors) != len(wl.Neighbors) {
				t.Fatalf("%s: batch %d layer %d shapes differ", label, bi, li)
			}
			for i := range wl.Targets {
				if gl.Targets[i] != wl.Targets[i] {
					t.Fatalf("%s: batch %d layer %d target %d differs", label, bi, li, i)
				}
			}
			for i := range wl.Starts {
				if gl.Starts[i] != wl.Starts[i] {
					t.Fatalf("%s: batch %d layer %d start %d differs", label, bi, li, i)
				}
			}
			for i := range wl.Neighbors {
				if gl.Neighbors[i] != wl.Neighbors[i] {
					t.Fatalf("%s: batch %d layer %d neighbor %d differs: %d vs %d",
						label, bi, li, i, gl.Neighbors[i], wl.Neighbors[i])
				}
			}
		}
		if wb.FeatureDim > 0 {
			// Feature payload: node union, dim, and raw f32 bytes must all
			// be byte-identical to the direct core run.
			if gb.FeatureDim != wb.FeatureDim {
				t.Fatalf("%s: batch %d feature dim %d, want %d", label, bi, gb.FeatureDim, wb.FeatureDim)
			}
			if len(gb.FeatNodes) != len(wb.FeatNodes) {
				t.Fatalf("%s: batch %d has %d feature nodes, want %d", label, bi, len(gb.FeatNodes), len(wb.FeatNodes))
			}
			for i := range wb.FeatNodes {
				if gb.FeatNodes[i] != wb.FeatNodes[i] {
					t.Fatalf("%s: batch %d feature node %d differs: %d vs %d",
						label, bi, i, gb.FeatNodes[i], wb.FeatNodes[i])
				}
			}
			if !bytes.Equal(gb.Features, wb.Features) {
				t.Fatalf("%s: batch %d feature payload differs from the reference (%d vs %d bytes)",
					label, bi, len(gb.Features), len(wb.Features))
			}
		} else if gb.FeatureDim != 0 || len(gb.FeatNodes) != 0 || len(gb.Features) != 0 {
			t.Fatalf("%s: batch %d carries a feature payload the reference does not", label, bi)
		}
		d := wb.Digest()
		if gb.Digest != fmt.Sprintf("%016x", d) {
			t.Fatalf("%s: batch %d digest %s != reference %016x", label, bi, gb.Digest, d)
		}
		folded = folded*0x100000001b3 ^ d
	}
	if resp.Digest != fmt.Sprintf("%016x", folded) {
		t.Fatalf("%s: folded digest %s != reference %016x", label, resp.Digest, folded)
	}
}

// scrapeMetric fetches /metrics and returns the value of the exactly
// named series (no labels).
func scrapeMetrics(t *testing.T, client *http.Client, base string) string {
	t.Helper()
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func metricValue(t *testing.T, body, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) == 2 && fields[0] == name {
			v, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				t.Fatalf("metric %s: bad value %q", name, fields[1])
			}
			return v
		}
	}
	t.Fatalf("metric %s not found in /metrics output", name)
	return 0
}

// TestServeE2EDeterminism fires 80 concurrent requests with mixed
// fanouts, seeds, and sizes (some spanning multiple chunks) at a
// 4-worker server and asserts every response is byte-identical to a
// direct single-threaded core run of the same request — the serving
// layer's determinism contract, independent of worker scheduling.
func TestServeE2EDeterminism(t *testing.T) {
	ds := testDataset(t)
	cfg := DefaultConfig()
	cfg.Core.Threads = 4
	cfg.Core.BatchSize = 64
	cfg.QueueDepth = 4096
	_, base := startServer(t, ds, cfg)

	fanoutMixes := [][]int{nil, {5}, {10, 5}, {20, 15, 10}, {3, 3, 3}}
	rng := sample.NewRNG(42)
	const n = 80
	reqs := make([]sampleRequest, n)
	for i := range reqs {
		nt := 1 + int(rng.Uint32n(200)) // some requests span 4 chunks
		targets := make([]uint32, nt)
		for j := range targets {
			targets[j] = rng.Uint32n(uint32(ds.NumNodes()))
		}
		reqs[i] = sampleRequest{
			Targets: targets,
			Fanouts: fanoutMixes[i%len(fanoutMixes)],
			Seed:    uint64(1000 + i),
		}
	}

	client := &http.Client{Timeout: 60 * time.Second}
	type result struct {
		status int
		data   []byte
	}
	results := make([]result, n)
	var wg sync.WaitGroup
	for i := range reqs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, data := postSample(t, client, base, reqs[i])
			results[i] = result{st, data}
		}(i)
	}
	wg.Wait()

	for i, r := range results {
		if r.status != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, r.status, r.data)
		}
		want := referenceBatches(t, ds, cfg.Core, reqs[i], cfg.Core.BatchSize)
		assertResponseMatches(t, fmt.Sprintf("request %d", i), r.data, want)
	}

	body := scrapeMetrics(t, client, base)
	if got := metricValue(t, body, "ringsampler_serve_responses_ok_total"); got != n {
		t.Fatalf("responses_ok_total = %v, want %d", got, n)
	}
	if got := metricValue(t, body, "ringsampler_serve_queue_depth"); got != 0 {
		t.Fatalf("queue_depth = %v after drain, want 0", got)
	}
	// Every chunk is one job, picked up and run exactly once.
	chunks := 0
	for _, req := range reqs {
		chunks += (len(req.Targets) + cfg.Core.BatchSize - 1) / cfg.Core.BatchSize
	}
	for _, name := range []string{"ringsampler_serve_queue_wait_seconds_count", "ringsampler_serve_sample_seconds_count"} {
		if got := metricValue(t, body, name); got != float64(chunks) {
			t.Fatalf("%s = %v, want %d (one per chunk)", name, got, chunks)
		}
	}
	if got := metricValue(t, body, "ringsampler_io_bytes_read_total"); got <= 0 {
		t.Fatalf("io_bytes_read_total = %v, want > 0", got)
	}
}

// TestServeSmallRequestNotWindowed: an idle server starts a small
// request at once. Admitted chunks go straight to a free pool slot, so
// sequential 4-target requests on a 1-worker server wait well under a
// millisecond in the queue — no batching window sits in front of the
// pool.
func TestServeSmallRequestNotWindowed(t *testing.T) {
	ds := testDataset(t)
	cfg := DefaultConfig()
	cfg.Core.Threads = 1
	_, base := startServer(t, ds, cfg)
	client := &http.Client{Timeout: 30 * time.Second}

	rng := sample.NewRNG(13)
	const n = 20
	for i := 0; i < n; i++ {
		targets := make([]uint32, 4)
		for j := range targets {
			targets[j] = rng.Uint32n(uint32(ds.NumNodes()))
		}
		st, data := postSample(t, client, base, sampleRequest{Targets: targets, Fanouts: []int{5, 5}, Seed: uint64(i)})
		if st != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, st, data)
		}
	}
	body := scrapeMetrics(t, client, base)
	if got := metricValue(t, body, "ringsampler_serve_queue_wait_seconds_count"); got != n {
		t.Fatalf("queue_wait_seconds_count = %v, want %d", got, n)
	}
	mean := metricValue(t, body, "ringsampler_serve_queue_wait_seconds_sum") / n
	if mean >= 1e-3 {
		t.Fatalf("mean queue wait %.3f ms on an idle server, want < 1 ms", mean*1e3)
	}
}

// TestServeE2EFeatureDeterminism is the feature-store serving contract:
// 80 concurrent mixed-fanout requests against a 4-worker server with a
// live hot-node feature cache, most asking for features (half through
// the body field, half through the ?features=true query parameter) and
// every third one plain — so feature and non-feature chunks share the
// queue and the workers. Every response, feature payload bytes
// included, must be byte-identical to a direct single-threaded core run
// of the same request.
func TestServeE2EFeatureDeterminism(t *testing.T) {
	ds := testFeatureDataset(t)
	cfg := DefaultConfig()
	cfg.Core.Threads = 4
	cfg.Core.BatchSize = 64
	// A real cache budget: concurrent requests hit and miss the shared
	// feature cache while the determinism contract must still hold.
	cfg.Core.FeatureCacheBudgetBytes = 16 << 10
	cfg.QueueDepth = 4096
	_, base := startServer(t, ds, cfg)

	fanoutMixes := [][]int{nil, {5}, {10, 5}, {20, 15, 10}, {3, 3, 3}}
	rng := sample.NewRNG(43)
	const n = 80
	reqs := make([]sampleRequest, n)
	paths := make([]string, n)
	featureCount := 0
	for i := range reqs {
		nt := 1 + int(rng.Uint32n(200)) // some requests span 4 chunks
		targets := make([]uint32, nt)
		for j := range targets {
			targets[j] = rng.Uint32n(uint32(ds.NumNodes()))
		}
		reqs[i] = sampleRequest{
			Targets: targets,
			Fanouts: fanoutMixes[i%len(fanoutMixes)],
			Seed:    uint64(2000 + i),
		}
		paths[i] = "/v1/sample"
		if i%3 == 0 {
			continue // plain request, interleaved with featureful neighbors
		}
		featureCount++
		if i%2 == 0 {
			reqs[i].Features = true
		} else {
			// Query-parameter form: the wire request body says nothing
			// about features, but the reference must still produce them.
			paths[i] = "/v1/sample?features=true"
		}
	}

	client := &http.Client{Timeout: 60 * time.Second}
	type result struct {
		status int
		data   []byte
	}
	results := make([]result, n)
	var wg sync.WaitGroup
	for i := range reqs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, data := postSamplePath(t, client, base, paths[i], reqs[i])
			results[i] = result{st, data}
		}(i)
	}
	wg.Wait()

	for i, r := range results {
		if r.status != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, r.status, r.data)
		}
		ref := reqs[i]
		if paths[i] != "/v1/sample" {
			ref.Features = true
		}
		want := referenceBatches(t, ds, cfg.Core, ref, cfg.Core.BatchSize)
		if ref.Features {
			for bi, b := range want {
				if b.FeatureDim != testFeatureDim || len(b.Features) == 0 {
					t.Fatalf("reference for request %d batch %d has no feature payload", i, bi)
				}
			}
		}
		assertResponseMatches(t, fmt.Sprintf("request %d", i), r.data, want)
	}

	body := scrapeMetrics(t, client, base)
	if got := metricValue(t, body, "ringsampler_serve_responses_ok_total"); got != n {
		t.Fatalf("responses_ok_total = %v, want %d", got, n)
	}
	if got := metricValue(t, body, "ringsampler_serve_feature_requests_total"); got != float64(featureCount) {
		t.Fatalf("feature_requests_total = %v, want %d", got, featureCount)
	}
	if got := metricValue(t, body, "ringsampler_io_feat_reads_total"); got <= 0 {
		t.Fatalf("io_feat_reads_total = %v, want > 0", got)
	}
	hits := metricValue(t, body, "ringsampler_io_feat_cache_hits_total")
	misses := metricValue(t, body, "ringsampler_io_feat_cache_misses_total")
	if hits <= 0 || misses <= 0 {
		t.Fatalf("feature cache never exercised under load: hits=%v misses=%v", hits, misses)
	}
	// Serving has no epoch boundary: the cache is exported, never re-admitted.
	for _, name := range []string{"ringsampler_io_feat_cache_admitted_total", "ringsampler_io_feat_cache_evicted_total"} {
		if got := metricValue(t, body, name); got != 0 {
			t.Fatalf("%s = %v, want 0 while serving", name, got)
		}
	}
}

// TestServeFeatureValidation: feature requests against an edge-only
// dataset and malformed ?features values are 400s that never reach the
// rings.
func TestServeFeatureValidation(t *testing.T) {
	ds := testDataset(t) // no feature file
	cfg := DefaultConfig()
	cfg.Core.Threads = 1
	_, base := startServer(t, ds, cfg)
	client := &http.Client{Timeout: 30 * time.Second}

	req := sampleRequest{Targets: []uint32{1, 2, 3}, Fanouts: []int{5}, Seed: 1}

	for _, tc := range []struct {
		name, path string
		body       sampleRequest
		wantErr    string
	}{
		{"body flag on edge-only dataset", "/v1/sample",
			sampleRequest{Targets: req.Targets, Fanouts: req.Fanouts, Seed: 1, Features: true},
			"no feature file"},
		{"query flag on edge-only dataset", "/v1/sample?features=true", req, "no feature file"},
		{"malformed query flag", "/v1/sample?features=maybe", req, "must be a boolean"},
	} {
		st, data := postSamplePath(t, client, base, tc.path, tc.body)
		if st != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400: %s", tc.name, st, data)
		}
		var er errorResponse
		if err := json.Unmarshal(data, &er); err != nil {
			t.Fatalf("%s: bad error JSON: %v", tc.name, err)
		}
		if !strings.Contains(er.Error, tc.wantErr) {
			t.Fatalf("%s: error %q does not mention %q", tc.name, er.Error, tc.wantErr)
		}
	}

	// ?features=false (and an explicit false body flag) on a featureful
	// dataset is an ordinary plain request.
	fds := testFeatureDataset(t)
	_, fbase := startServer(t, fds, cfg)
	st, data := postSamplePath(t, client, fbase, "/v1/sample?features=false", req)
	if st != http.StatusOK {
		t.Fatalf("features=false: status %d: %s", st, data)
	}
	var resp sampleResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		t.Fatal(err)
	}
	for bi, b := range resp.Batches {
		if b.FeatureDim != 0 || len(b.Features) != 0 {
			t.Fatalf("features=false: batch %d still carries a feature payload", bi)
		}
	}

	body := scrapeMetrics(t, client, base)
	if got := metricValue(t, body, "ringsampler_serve_bad_requests_total"); got != 3 {
		t.Fatalf("bad_requests_total = %v, want 3", got)
	}
	if got := metricValue(t, body, "ringsampler_io_feat_reads_total"); got != 0 {
		t.Fatalf("rejected feature requests still reached the feature ring: %v reads", got)
	}
}

// slowRing delays every Wait — a dial for saturating the service in
// tests without big datasets.
type slowRing struct {
	uring.Ring
	delay time.Duration
}

func (r *slowRing) Wait(min int) ([]uring.CQE, error) {
	time.Sleep(r.delay)
	return r.Ring.Wait(min)
}

// TestServeSaturationFastFail saturates a 1-worker server with a tiny
// admission queue: most of the 64 concurrent requests must be rejected
// 429 — quickly, not after queuing behind the slow device — the rest
// must succeed and stay byte-identical, and /metrics must agree with
// the client-observed rejection count. Every request asks for features:
// the feature stage rides the same admission control, and successful
// responses must carry byte-identical feature payloads even under
// saturation.
func TestServeSaturationFastFail(t *testing.T) {
	ds := testFeatureDataset(t)
	cfg := DefaultConfig()
	cfg.Core.Threads = 1
	cfg.Core.BatchSize = 64
	cfg.Core.WrapRing = func(r uring.Ring, workerID int) (uring.Ring, error) {
		return &slowRing{Ring: r, delay: 2 * time.Millisecond}, nil
	}
	cfg.QueueDepth = 2
	_, base := startServer(t, ds, cfg)

	rng := sample.NewRNG(7)
	const n = 64
	reqs := make([]sampleRequest, n)
	for i := range reqs {
		targets := make([]uint32, 32)
		for j := range targets {
			targets[j] = rng.Uint32n(uint32(ds.NumNodes()))
		}
		reqs[i] = sampleRequest{Targets: targets, Fanouts: []int{5, 5}, Seed: uint64(i), Features: true, TimeoutMS: 30_000}
	}

	client := &http.Client{Timeout: 60 * time.Second}
	statuses := make([]int, n)
	bodies := make([][]byte, n)
	rejectLat := make([]time.Duration, n)
	var wg sync.WaitGroup
	for i := range reqs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			t0 := time.Now()
			statuses[i], bodies[i] = postSample(t, client, base, reqs[i])
			rejectLat[i] = time.Since(t0)
		}(i)
	}
	wg.Wait()

	var ok, rejected, other int
	for i, st := range statuses {
		switch st {
		case http.StatusOK:
			ok++
			want := referenceBatches(t, ds, cfg.Core, reqs[i], cfg.Core.BatchSize)
			assertResponseMatches(t, fmt.Sprintf("request %d", i), bodies[i], want)
		case http.StatusTooManyRequests:
			rejected++
			// Fast-fail: a rejection must not have waited on the device.
			if rejectLat[i] > 5*time.Second {
				t.Fatalf("request %d: 429 took %v — rejection queued instead of fast-failing", i, rejectLat[i])
			}
		default:
			other++
			t.Logf("request %d: unexpected status %d: %s", i, st, bodies[i])
		}
	}
	if other > 0 {
		t.Fatalf("%d requests got a status other than 200/429", other)
	}
	if ok == 0 {
		t.Fatal("no request succeeded under saturation")
	}
	if rejected == 0 {
		t.Fatal("saturation produced no 429s — the queue did not fast-fail")
	}

	body := scrapeMetrics(t, client, base)
	if got := metricValue(t, body, "ringsampler_serve_rejected_total"); got != float64(rejected) {
		t.Fatalf("rejected_total = %v, client observed %d rejections", got, rejected)
	}
	if got := metricValue(t, body, "ringsampler_serve_responses_ok_total"); got != float64(ok) {
		t.Fatalf("responses_ok_total = %v, client observed %d", got, ok)
	}
	if got := metricValue(t, body, "ringsampler_serve_sample_seconds_count"); got <= 0 {
		t.Fatalf("sample_seconds histogram empty: %v", got)
	}
}

// TestServeDeadline: a request whose deadline is far shorter than the
// device latency must come back 504 and be counted — features on, so
// the deadline path is proven unchanged with the feature stage in play.
func TestServeDeadline(t *testing.T) {
	ds := testFeatureDataset(t)
	cfg := DefaultConfig()
	cfg.Core.Threads = 1
	cfg.Core.WrapRing = func(r uring.Ring, workerID int) (uring.Ring, error) {
		return &slowRing{Ring: r, delay: 50 * time.Millisecond}, nil
	}
	_, base := startServer(t, ds, cfg)

	client := &http.Client{Timeout: 30 * time.Second}
	st, data := postSample(t, client, base, sampleRequest{
		Targets: []uint32{1, 2, 3}, Fanouts: []int{10, 10}, Seed: 5, Features: true, TimeoutMS: 10,
	})
	if st != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", st, data)
	}
	body := scrapeMetrics(t, client, base)
	if got := metricValue(t, body, "ringsampler_serve_deadline_exceeded_total"); got != 1 {
		t.Fatalf("deadline_exceeded_total = %v, want 1", got)
	}
}

// breakableRing runs clean until armed. Once armed it dribbles
// completions one per Wait, poisons the 2nd delivery with -EIO (the
// batch fails with later completions still owed), lets the quarantine
// drain a few of them (StaleDrained > 0), then errors every Wait — the
// exact shape that leaves a worker Broken. Held-back completions are
// queued, never dropped, so the underlying ring's accounting stays
// intact.
type breakableRing struct {
	uring.Ring
	arm       *atomic.Bool
	armed     bool // latched on first Wait that observes arm
	queued    []uring.CQE
	delivered int // deliveries since arming
}

var errRingDied = errors.New("breakableRing: ring died")

func (r *breakableRing) Wait(min int) ([]uring.CQE, error) {
	if !r.armed && r.arm.Load() {
		r.armed = true
	}
	if !r.armed {
		return r.Ring.Wait(min)
	}
	if r.delivered >= 6 {
		return nil, errRingDied
	}
	for len(r.queued) == 0 {
		cqes, err := r.Ring.Wait(1)
		if err != nil {
			return nil, err
		}
		if len(cqes) == 0 {
			return nil, nil
		}
		r.queued = append(r.queued, cqes...)
	}
	out := []uring.CQE{r.queued[0]}
	r.queued = r.queued[1:]
	r.delivered++
	if r.delivered == 2 {
		out[0].Res = -int32(syscall.EIO)
	}
	return out, nil
}

// TestServeWorkerRetirement breaks the single pooled worker mid-batch
// and asserts the PR's replacement-accounting contract: the broken
// worker is retired (never reused), a replacement serves later requests
// correctly, and the retired worker's IOStats — the reads it completed
// before breaking AND the stale completions its quarantine drained —
// stay in the aggregate instead of vanishing with the worker.
func TestServeWorkerRetirement(t *testing.T) {
	ds := testDataset(t)
	var arm atomic.Bool
	cfg := DefaultConfig()
	cfg.Core.Threads = 1
	cfg.Core.BatchSize = 64
	cfg.Core.WrapRing = func(r uring.Ring, workerID int) (uring.Ring, error) {
		if workerID == 0 {
			return &breakableRing{Ring: r, arm: &arm}, nil
		}
		return r, nil
	}
	srv, base := startServer(t, ds, cfg)

	rng := sample.NewRNG(3)
	targets := make([]uint32, 48)
	for j := range targets {
		targets[j] = rng.Uint32n(uint32(ds.NumNodes()))
	}
	client := &http.Client{Timeout: 30 * time.Second}

	// Request A: clean run on worker 0.
	reqA := sampleRequest{Targets: targets, Fanouts: []int{8, 4}, Seed: 21}
	st, data := postSample(t, client, base, reqA)
	if st != http.StatusOK {
		t.Fatalf("request A: status %d: %s", st, data)
	}
	readsAfterA := srv.IOStats().Reads
	if readsAfterA == 0 {
		t.Fatal("request A recorded no reads")
	}

	// Request B: the armed ring poisons the batch and then dies during
	// quarantine — worker 0 must come out Broken and be retired.
	arm.Store(true)
	st, data = postSample(t, client, base, reqA)
	if st != http.StatusInternalServerError {
		t.Fatalf("request B: status %d, want 500: %s", st, data)
	}
	arm.Store(false)

	// Request C: must be served by the replacement worker, bytes
	// identical to a direct run.
	reqC := sampleRequest{Targets: targets, Fanouts: []int{6, 3}, Seed: 22}
	st, data = postSample(t, client, base, reqC)
	if st != http.StatusOK {
		t.Fatalf("request C: status %d: %s", st, data)
	}
	want := referenceBatches(t, ds, cfg.Core, reqC, cfg.Core.BatchSize)
	assertResponseMatches(t, "request C", data, want)

	body := scrapeMetrics(t, client, base)
	if got := metricValue(t, body, "ringsampler_serve_workers_retired_total"); got != 1 {
		t.Fatalf("workers_retired_total = %v, want 1", got)
	}
	st2 := srv.IOStats()
	// Replacement accounting: A's reads (on the retired worker) must
	// still be in the aggregate alongside C's (on the replacement).
	if st2.Reads <= readsAfterA {
		t.Fatalf("aggregate reads %d after retirement ≤ reads %d before — retired worker's stats were dropped",
			st2.Reads, readsAfterA)
	}
	if st2.StaleDrained == 0 {
		t.Fatal("quarantine drained no stale completions — retired stats lost or scenario defanged")
	}
	if got := metricValue(t, body, "ringsampler_io_stale_drained_total"); got != float64(st2.StaleDrained) {
		t.Fatalf("metrics stale_drained %v != pool stats %d", got, st2.StaleDrained)
	}
}

// TestServeGracefulDrain starts requests against a deliberately slow
// server and shuts down while they are in flight: every in-flight
// request must complete (not die mid-batch), later requests must be
// refused, and Serve must return http.ErrServerClosed.
func TestServeGracefulDrain(t *testing.T) {
	ds := testDataset(t)
	cfg := DefaultConfig()
	cfg.Core.Threads = 2
	cfg.Core.BatchSize = 64
	cfg.Core.WrapRing = func(r uring.Ring, workerID int) (uring.Ring, error) {
		return &slowRing{Ring: r, delay: 5 * time.Millisecond}, nil
	}
	srv, err := New(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	base := "http://" + ln.Addr().String()

	client := &http.Client{Timeout: 60 * time.Second}
	const n = 8
	statuses := make([]int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rng := sample.NewRNG(sample.Mix(17, uint64(i)))
			targets := make([]uint32, 32)
			for j := range targets {
				targets[j] = rng.Uint32n(uint32(ds.NumNodes()))
			}
			statuses[i], _ = postSample(t, client, base, sampleRequest{Targets: targets, Fanouts: []int{4, 4}, Seed: uint64(i)})
		}(i)
	}
	// Give the requests a moment to be admitted, then drain.
	time.Sleep(20 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}
	wg.Wait()
	for i, st := range statuses {
		if st != http.StatusOK {
			t.Fatalf("in-flight request %d got status %d during graceful drain", i, st)
		}
	}
	if err := <-serveErr; !errors.Is(err, http.ErrServerClosed) {
		t.Fatalf("Serve returned %v, want http.ErrServerClosed", err)
	}
	if _, err := client.Get(base + "/healthz"); err == nil {
		t.Fatal("listener still accepting after shutdown")
	}
	if srv.IOStats().Reads == 0 {
		t.Fatal("drained server reports zero reads")
	}
}

// TestServeValidation: malformed and out-of-range requests are 400s,
// counted, and never reach the engine.
func TestServeValidation(t *testing.T) {
	ds := testDataset(t)
	cfg := DefaultConfig()
	cfg.Core.Threads = 1
	_, base := startServer(t, ds, cfg)
	client := &http.Client{Timeout: 10 * time.Second}

	cases := []sampleRequest{
		{},                           // no targets
		{Targets: []uint32{1 << 30}}, // target out of range
		{Targets: []uint32{1}, Fanouts: []int{0}},       // zero fanout
		{Targets: []uint32{1}, Fanouts: []int{1 << 20}}, // absurd fanout
		{Targets: make([]uint32, 100_000)},              // too many targets
	}
	for i, req := range cases {
		st, data := postSample(t, client, base, req)
		if st != http.StatusBadRequest {
			t.Fatalf("case %d: status %d, want 400: %s", i, st, data)
		}
	}
	resp, err := client.Post(base+"/v1/sample", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed JSON: status %d, want 400", resp.StatusCode)
	}
	body := scrapeMetrics(t, client, base)
	if got := metricValue(t, body, "ringsampler_serve_bad_requests_total"); got != float64(len(cases)+1) {
		t.Fatalf("bad_requests_total = %v, want %d", got, len(cases)+1)
	}
	if got := metricValue(t, body, "ringsampler_io_reads_total"); got != 0 {
		t.Fatalf("validation failures reached the engine: %v reads", got)
	}
}

// TestServeStrategy: there is one strategy, so the body's "strategy"
// field may be empty or "uniform" — both byte-identical to a direct
// core run — and any other name, a retired one included, is a 400 that
// names it and never reaches the rings, not uniform samples answering a
// request for something else.
func TestServeStrategy(t *testing.T) {
	ds := testDataset(t)
	cfg := DefaultConfig()
	cfg.Core.Threads = 2
	cfg.Core.BatchSize = 64
	_, base := startServer(t, ds, cfg)
	client := &http.Client{Timeout: 60 * time.Second}

	rng := sample.NewRNG(19)
	targets := make([]uint32, 150) // spans 3 chunks
	for j := range targets {
		targets[j] = rng.Uint32n(uint32(ds.NumNodes()))
	}

	for _, strat := range []string{"", core.StrategyUniform} {
		req := sampleRequest{Targets: targets, Fanouts: []int{6, 4}, Seed: 31, Strategy: strat}
		st, data := postSample(t, client, base, req)
		if st != http.StatusOK {
			t.Fatalf("strategy %q: status %d: %s", strat, st, data)
		}
		want := referenceBatches(t, ds, cfg.Core, req, cfg.Core.BatchSize)
		assertResponseMatches(t, fmt.Sprintf("strategy %q", strat), data, want)
	}

	readsBefore := metricValue(t, scrapeMetrics(t, client, base), "ringsampler_io_reads_total")
	refused := []string{"walk", "weighted", "bogus"}
	for _, strat := range refused {
		st, data := postSample(t, client, base, sampleRequest{
			Targets: []uint32{1, 2, 3}, Fanouts: []int{5}, Seed: 1, Strategy: strat,
		})
		if st != http.StatusBadRequest {
			t.Fatalf("strategy %q: status %d, want 400: %s", strat, st, data)
		}
		var er errorResponse
		if err := json.Unmarshal(data, &er); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(er.Error, fmt.Sprintf("%q", strat)) || !strings.Contains(er.Error, core.StrategyUniform) {
			t.Fatalf("strategy error %q names neither %q nor the one strategy", er.Error, strat)
		}
	}
	body := scrapeMetrics(t, client, base)
	if got := metricValue(t, body, "ringsampler_serve_bad_requests_total"); got != float64(len(refused)) {
		t.Fatalf("bad_requests_total = %v, want %d", got, len(refused))
	}
	if got := metricValue(t, body, "ringsampler_io_reads_total"); got != readsBefore {
		t.Fatalf("refused strategy requests reached the engine: reads %v -> %v", readsBefore, got)
	}
}

// TestServePoisonedChunkCancelsSiblings: when one chunk of a fanned-out
// request fails, the request's surviving chunks must be canceled
// instead of burning pool time on a response that is already doomed.
// One worker, a 4-chunk request, and a ring that hard-fails every read:
// chunk 0 poisons the request, so the pool must skip the other three
// (counted as canceled jobs) rather than running them to failure too.
func TestServePoisonedChunkCancelsSiblings(t *testing.T) {
	ds := testDataset(t)
	cfg := DefaultConfig()
	cfg.Core.Threads = 1
	cfg.Core.BatchSize = 64
	cfg.Core.WrapRing = func(r uring.Ring, workerID int) (uring.Ring, error) {
		return uring.NewFault(r, uring.FaultPlan{Seed: 5, HardErrRate: 1})
	}
	_, base := startServer(t, ds, cfg)
	client := &http.Client{Timeout: 30 * time.Second}

	rng := sample.NewRNG(23)
	targets := make([]uint32, 4*cfg.Core.BatchSize) // exactly 4 chunks
	for j := range targets {
		targets[j] = rng.Uint32n(uint32(ds.NumNodes()))
	}
	st, data := postSample(t, client, base, sampleRequest{Targets: targets, Fanouts: []int{6, 4}, Seed: 3})
	if st != http.StatusInternalServerError {
		t.Fatalf("poisoned request: status %d, want 500: %s", st, data)
	}

	body := scrapeMetrics(t, client, base)
	// The single slot runs the chunks in order: chunk 0 fails and
	// cancels the request, chunks 1-3 must be skipped.
	if got := metricValue(t, body, "ringsampler_serve_canceled_jobs_total"); got != 3 {
		t.Fatalf("canceled_jobs_total = %v, want 3 (sibling chunks ran after the request died)", got)
	}
	if got := metricValue(t, body, "ringsampler_serve_responses_ok_total"); got != 0 {
		t.Fatalf("responses_ok_total = %v, want 0", got)
	}
}

// TestMetricsExportEveryIOCounter: every int64 counter of core.IOStats
// has a ringsampler_io_* line carrying its value. FixedReads is exempt:
// it is always 0 and kept only for the benchmark harness.
func TestMetricsExportEveryIOCounter(t *testing.T) {
	var st core.IOStats
	v := reflect.ValueOf(&st).Elem()
	for i := range v.NumField() {
		if f := v.Field(i); f.Kind() == reflect.Int64 {
			f.SetInt(int64(1_000_003 * (i + 1)))
		}
	}
	var buf bytes.Buffer
	newMetrics().write(&buf, st, cacheInfo{}, 1, 0, 1)
	exported := map[int64]bool{}
	for _, line := range strings.Split(buf.String(), "\n") {
		name, val, ok := strings.Cut(line, " ")
		if n, err := strconv.ParseInt(val, 10, 64); ok && err == nil && strings.HasPrefix(name, "ringsampler_io_") {
			exported[n] = true
		}
	}
	for i := range v.NumField() {
		f := v.Type().Field(i)
		if f.Type.Kind() == reflect.Int64 && f.Name != "FixedReads" && !exported[v.Field(i).Int()] {
			t.Errorf("IOStats.%s has no ringsampler_io_* metric", f.Name)
		}
	}
}

// TestMetricsExportCachePins: /metrics reports what each cache pins —
// the neighbor cache's lists and bytes, the feature cache's rows and
// bytes — as the server's CacheInfo does, and zeros with both caches off.
func TestMetricsExportCachePins(t *testing.T) {
	ds := testFeatureDataset(t)
	for _, budget := range []int64{0, 16 << 10} {
		cfg := DefaultConfig()
		cfg.Core.Threads = 1
		cfg.Core.CacheBudgetBytes, cfg.Core.FeatureCacheBudgetBytes = budget, budget/2
		srv, base := startServer(t, ds, cfg)
		lists, listBytes, rows, rowBytes := srv.CacheInfo()
		if budget > 0 && (lists == 0 || listBytes == 0 || rows == 0 || rowBytes == 0) || budget == 0 && lists+rows != 0 {
			t.Fatalf("budget %d: caches pin %d lists of %d B and %d rows of %d B", budget, lists, listBytes, rows, rowBytes)
		}
		body := scrapeMetrics(t, &http.Client{}, base)
		for name, want := range map[string]int64{
			"ringsampler_cache_pinned_rows":       int64(lists),
			"ringsampler_cache_pinned_bytes":      listBytes,
			"ringsampler_feat_cache_pinned_rows":  int64(rows),
			"ringsampler_feat_cache_pinned_bytes": rowBytes,
		} {
			if got := metricValue(t, body, name); got != float64(want) {
				t.Errorf("budget %d: %s = %v, want %d", budget, name, got, want)
			}
		}
	}
}

// TestHistRender sanity-checks the Prometheus rendering: cumulative
// buckets, +Inf count, and sum/count lines.
func TestHistRender(t *testing.T) {
	h := newHist([]int64{10, 100, 1000})
	for _, v := range []int64{5, 50, 500, 5000, 7} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("Count() = %d, want 5", h.Count())
	}
	var buf bytes.Buffer
	writeHist(&buf, "x", "help", h, 1)
	out := buf.String()
	for _, want := range []string{
		`x_bucket{le="10"} 2`,
		`x_bucket{le="100"} 3`,
		`x_bucket{le="1000"} 4`,
		`x_bucket{le="+Inf"} 5`,
		"x_sum 5562",
		"x_count 5",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered histogram missing %q:\n%s", want, out)
		}
	}
}
