package serve

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ringsampler/internal/sample"
	"ringsampler/internal/uring"
)

// TestCheckTargets64BitRange is the regression test for the admission
// range check: the node count must be compared in 64 bits. The old
// code narrowed NumNodes to uint32 first, so a manifest with 2^32+5
// nodes validated targets against 5 — rejecting almost every valid
// target on a graph too large to open in a test, which is why this
// pins the extracted helper against a mocked manifest count.
func TestCheckTargets64BitRange(t *testing.T) {
	huge := int64(1)<<32 + 5 // uint32(huge) == 5
	for _, v := range []uint32{0, 4, 5, 10, 1 << 31, ^uint32(0)} {
		if err := checkTargets([]uint32{v}, huge); err != nil {
			t.Fatalf("target %d rejected on a %d-node graph: %v (truncated comparison?)", v, huge, err)
		}
	}
	if err := checkTargets([]uint32{9, 10}, 10); err == nil {
		t.Fatal("target 10 accepted on a 10-node graph")
	}
	if err := checkTargets([]uint32{9}, 10); err != nil {
		t.Fatalf("target 9 rejected on a 10-node graph: %v", err)
	}
}

// TestServeNegativeTimeoutRejected: a negative timeout_ms is a client
// bug and must be a 400, not a silent substitution of the default.
func TestServeNegativeTimeoutRejected(t *testing.T) {
	ds := testDataset(t)
	cfg := DefaultConfig()
	cfg.Core.Threads = 1
	_, base := startServer(t, ds, cfg)
	client := &http.Client{Timeout: 10 * time.Second}

	st, data := postSample(t, client, base, sampleRequest{
		Targets: []uint32{1, 2, 3}, Fanouts: []int{5}, Seed: 1, TimeoutMS: -50,
	})
	if st != http.StatusBadRequest {
		t.Fatalf("timeout_ms=-50: status %d, want 400: %s", st, data)
	}
	var er errorResponse
	if err := json.Unmarshal(data, &er); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(er.Error, "timeout_ms") {
		t.Fatalf("error %q does not mention timeout_ms", er.Error)
	}
	body := scrapeMetrics(t, client, base)
	if got := metricValue(t, body, "ringsampler_io_reads_total"); got != 0 {
		t.Fatalf("rejected request reached the engine: %v reads", got)
	}
}

// TestValidateSampleTimeout: timeout_ms is capped in milliseconds
// before it becomes a time.Duration. Converting first wrapped huge
// values: MaxInt64 ms became a −1 ms deadline (an instant 504) and
// 9223372036854776 ms a 192 µs one.
func TestValidateSampleTimeout(t *testing.T) {
	cfg := DefaultConfig()
	r := httptest.NewRequest(http.MethodPost, "/v1/sample", nil)
	for _, tc := range []struct {
		ms   int64
		want time.Duration
	}{
		{0, defaultTimeout},
		{1, time.Millisecond},
		{maxTimeout.Milliseconds() - 1, maxTimeout - time.Millisecond},
		{maxTimeout.Milliseconds(), maxTimeout},
		{maxTimeout.Milliseconds() + 1, maxTimeout},
		{9223372036854776, maxTimeout},
		{math.MaxInt64, maxTimeout},
	} {
		req := sampleRequest{Targets: []uint32{1}, TimeoutMS: tc.ms}
		_, got, err := cfg.validateSample(r, &req, 10, false)
		if err != nil || got != tc.want {
			t.Errorf("timeout_ms %d: deadline %v, %v; want %v", tc.ms, got, err, tc.want)
		}
	}
}

// TestValidateSampleLimits pins each request limit at its edge: the
// largest accepted request and the smallest refused one.
func TestValidateSampleLimits(t *testing.T) {
	cfg := DefaultConfig()
	r := httptest.NewRequest(http.MethodPost, "/v1/sample", nil)
	check := func(name string, req sampleRequest, ok bool) {
		t.Helper()
		if _, _, err := cfg.validateSample(r, &req, 10, false); (err == nil) != ok {
			t.Errorf("%s: err %v, want accepted %v", name, err, ok)
		}
	}
	limit := 4 * cfg.Core.BatchSize
	check("targets at limit", sampleRequest{Targets: make([]uint32, limit)}, true)
	check("targets over limit", sampleRequest{Targets: make([]uint32, limit+1)}, false)
	check("8 layers", sampleRequest{Targets: []uint32{1}, Fanouts: []int{1, 1, 1, 1, 1, 1, 1, 1}}, true)
	check("9 layers", sampleRequest{Targets: []uint32{1}, Fanouts: []int{1, 1, 1, 1, 1, 1, 1, 1, 1}}, false)
	check("fanout 256", sampleRequest{Targets: []uint32{1}, Fanouts: []int{256}}, true)
	check("fanout 257", sampleRequest{Targets: []uint32{1}, Fanouts: []int{257}}, false)
	check("fanout 0", sampleRequest{Targets: []uint32{1}, Fanouts: []int{0}}, false)
}

// TestValidateSampleMaxBatchSize: at a Core.BatchSize of MaxInt a
// request is one chunk, well inside the limit. The limit was
// maxChunks × BatchSize, which wrapped negative and refused every
// request.
func TestValidateSampleMaxBatchSize(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Core.BatchSize = math.MaxInt
	r := httptest.NewRequest(http.MethodPost, "/v1/sample", nil)
	req := sampleRequest{Targets: []uint32{1, 2, 3, 4, 5}}
	if _, _, err := cfg.validateSample(r, &req, 10, false); err != nil {
		t.Fatalf("5 targets at BatchSize MaxInt refused: %v", err)
	}
}

// TestServeForcedShutdownQueueGaugeZero forces a drain (expired
// deadline) while a slow 1-worker server is saturated with multi-chunk
// requests and asserts the queue_depth gauge lands back at exactly
// zero: every admitted job's increment must be released by the pool
// slots, which drain the closed queue.
func TestServeForcedShutdownQueueGaugeZero(t *testing.T) {
	ds := testDataset(t)
	cfg := DefaultConfig()
	cfg.Core.Threads = 1
	cfg.Core.BatchSize = 16
	cfg.Core.WrapRing = func(r uring.Ring, workerID int) (uring.Ring, error) {
		return &slowRing{Ring: r, delay: 10 * time.Millisecond}, nil
	}
	cfg.QueueDepth = 4096
	srv, err := New(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	base := "http://" + ln.Addr().String()

	// Saturate: 8 concurrent requests × 4 chunks on a worker that needs
	// tens of milliseconds per job, so the queue is deep when the drain
	// deadline (shorter than one job) expires.
	client := &http.Client{Timeout: 60 * time.Second}
	var wg sync.WaitGroup
	var responded atomic.Int64
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rng := sample.NewRNG(sample.Mix(29, uint64(i)))
			targets := make([]uint32, 64)
			for j := range targets {
				targets[j] = rng.Uint32n(uint32(ds.NumNodes()))
			}
			body, _ := json.Marshal(sampleRequest{Targets: targets, Fanouts: []int{6, 4}, Seed: uint64(i)})
			resp, err := client.Post(base+"/v1/sample", "application/json", strings.NewReader(string(body)))
			if err != nil {
				// A forced drain may sever the connection mid-request;
				// the invariant under test is gauge accounting, not
				// client-visible status.
				return
			}
			resp.Body.Close()
			responded.Add(1)
		}(i)
	}
	time.Sleep(15 * time.Millisecond) // let requests be admitted

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
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
	wg.Wait() // no handler may be left hanging on an abandoned chunk

	if got := srv.met.queueDepth.Load(); got != 0 {
		t.Fatalf("queue_depth gauge = %d after forced shutdown, want 0 (leaked job increments)", got)
	}
	if got := srv.met.inflight.Load(); got != 0 {
		t.Fatalf("inflight gauge = %d after forced shutdown, want 0", got)
	}
	t.Logf("%d/8 requests saw a response during the forced drain", responded.Load())
}

// TestServeNoWorkerCleanError covers the core.ErrNoWorker path: when worker
// creation fails (here: the ring wrap refuses), a request must fail
// with a clean 500 naming the condition — never hang — the slot must
// stay alive, and once creation works again the SAME server must serve
// correctly through the lazily retried worker.
func TestServeNoWorkerCleanError(t *testing.T) {
	ds := testDataset(t)
	var refuse atomic.Bool
	refuse.Store(true) // broken from boot: the slot's initial worker also fails
	cfg := DefaultConfig()
	cfg.Core.Threads = 1
	cfg.Core.BatchSize = 64
	cfg.Core.WrapRing = func(r uring.Ring, workerID int) (uring.Ring, error) {
		if refuse.Load() {
			return nil, errors.New("injected: ring construction refused")
		}
		return r, nil
	}
	_, base := startServer(t, ds, cfg)
	client := &http.Client{Timeout: 15 * time.Second}

	req := sampleRequest{Targets: []uint32{1, 2, 3, 4}, Fanouts: []int{6, 4}, Seed: 9}
	st, data := postSample(t, client, base, req)
	if st != http.StatusInternalServerError {
		t.Fatalf("no-worker request: status %d, want 500: %s", st, data)
	}
	var er errorResponse
	if err := json.Unmarshal(data, &er); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(er.Error, "no worker available") {
		t.Fatalf("error %q does not surface the no-worker condition", er.Error)
	}

	// Creation works again: the pool slot must lazily acquire a worker
	// on the next job — no restart, no dead slot.
	refuse.Store(false)
	st, data = postSample(t, client, base, req)
	if st != http.StatusOK {
		t.Fatalf("post-recovery request: status %d: %s", st, data)
	}
	want := referenceBatches(t, ds, cfg.Core, req, cfg.Core.BatchSize)
	assertResponseMatches(t, "post-recovery request", data, want)

	body := scrapeMetrics(t, client, base)
	if got := metricValue(t, body, "ringsampler_serve_errors_total"); got != 1 {
		t.Fatalf("errors_total = %v, want 1", got)
	}
	if got := metricValue(t, body, "ringsampler_serve_responses_ok_total"); got != 1 {
		t.Fatalf("responses_ok_total = %v, want 1", got)
	}
}

// TestServeOversizedBody: a well-formed /v1/sample object padded past
// maxBodyBytes is a 413 that names the limit — not a 400 "unexpected
// EOF" from a body cut short. /v1/sample is the only endpoint that
// decodes a body: the retired shard protocol's routes answer 404.
func TestServeOversizedBody(t *testing.T) {
	ds := testDataset(t)
	cfg := DefaultConfig()
	cfg.Core.Threads = 1
	_, base := startServer(t, ds, cfg)
	client := &http.Client{Timeout: 30 * time.Second}

	pad := strings.Repeat(" ", maxBodyBytes)
	t.Run("sample", func(t *testing.T) {
		obj := `{"targets":[1,2,3],"fanouts":[5],"seed":1`
		resp, err := client.Post(base+"/v1/sample", "application/json", strings.NewReader(obj+pad+"}"))
		if err != nil {
			t.Fatal(err)
		}
		var er errorResponse
		derr := json.NewDecoder(resp.Body).Decode(&er)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge || derr != nil ||
			!strings.Contains(er.Error, strconv.Itoa(maxBodyBytes)) {
			t.Fatalf("status %d, error %q (%v); want 413 naming the %d-byte limit",
				resp.StatusCode, er.Error, derr, maxBodyBytes)
		}
	})
	t.Run("shard route gone", func(t *testing.T) {
		resp, err := client.Post(base+"/v1/shard/layer", "application/json",
			strings.NewReader(`{"layer":0,"fanout":4,"strategy":"uniform","frontier":[1]}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("POST /v1/shard/layer: status %d, want 404", resp.StatusCode)
		}
	})
}
