package serve

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"
	"time"

	"ringsampler/internal/core"
)

// FuzzSampleRequest drives the serving trust boundary — an arbitrary
// POST /v1/sample body and ?features= value — through Server.decode and
// Config.validateSample, as handleSample does, on a dataset with and one
// without a feature file. It must never panic; a rejected request is
// answered 400, or 413 once the body runs past maxBodyBytes; and an
// accepted one is within every limit the worker pool relies on.
func FuzzSampleRequest(f *testing.F) {
	for _, body := range []string{
		`{"targets":[1,2,3],"fanouts":[5],"seed":1}`,
		`{"targets":[1,2,3],"fanouts":[5],"seed":1,"features":true}`,
		`{"targets":[1,2,3,4],"fanouts":[6,4],"seed":9}`,
		`{"targets":[1,2,3],"fanouts":[10,10],"seed":5,"features":true,"timeout_ms":10}`,
		`{"targets":[1,2,3],"fanouts":[5],"seed":1,"timeout_ms":-50}`,
		`{"targets":[1,2,3],"fanouts":[5],"seed":1,"strategy":"bogus"}`,
		`{"targets":[7,8],"fanouts":[6,4],"seed":31,"strategy":"weighted"}`,
		`{"targets":[7,8],"fanouts":[6,4],"seed":31,"strategy":"walk"}`,
		`{"targets":[1],"fanouts":[1,1,1,1,1,1,1,1,1]}`,
		`{"targets":[1],"fanouts":[256]}`,
		`{"targets":[1],"fanouts":[0]}`,
		`{"targets":[1],"fanouts":[1048576]}`,
		`{"targets":[1073741824]}`,
		`{"targets":[1],"timeout_ms":9223372036854775807}`,
		`{}`,
		`{not json`,
		`{"targets":[1,2,3],"fanouts":[5],"seed":1`,
	} {
		f.Add([]byte(body), "", false)
		f.Add([]byte(body), "true", true)
	}
	f.Add([]byte(`{"targets":[1]}`), "maybe", true)

	cfg := DefaultConfig()
	cfg.Core.Threads = 1
	servers := map[bool]*Server{}
	for _, features := range []bool{false, true} {
		ds := testDataset(f)
		if features {
			ds = testFeatureDataset(f)
		}
		srv, err := New(ds, cfg)
		if err != nil {
			f.Fatal(err)
		}
		f.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			srv.Shutdown(ctx)
		})
		servers[features] = srv
	}

	f.Fuzz(func(t *testing.T, body []byte, featuresQuery string, withFeatures bool) {
		srv := servers[withFeatures]
		target := "/v1/sample"
		if featuresQuery != "" {
			target += "?features=" + url.QueryEscape(featuresQuery)
		}
		r := httptest.NewRequest(http.MethodPost, target, bytes.NewReader(body))
		w := httptest.NewRecorder()
		var req sampleRequest
		if !srv.decode(w, r, &req) {
			if w.Code != http.StatusBadRequest && (w.Code != http.StatusRequestEntityTooLarge || len(body) <= maxBodyBytes) {
				t.Fatalf("undecodable %d-byte body answered %d", len(body), w.Code)
			}
			return
		}
		numNodes, hasFeatures := srv.ds.NumNodes(), srv.ds.HasFeatures()
		fanouts, timeout, err := srv.cfg.validateSample(r, &req, numNodes, hasFeatures)
		if err != nil {
			srv.badRequest(w, err.Error())
			if w.Code != http.StatusBadRequest {
				t.Fatalf("invalid request (%v) answered %d", err, w.Code)
			}
			return
		}
		if n := len(req.Targets); n < 1 || n > maxChunks*cfg.Core.BatchSize {
			t.Fatalf("accepted %d targets, limit %d", n, maxChunks*cfg.Core.BatchSize)
		}
		for i, v := range req.Targets {
			if int64(v) >= numNodes {
				t.Fatalf("accepted target[%d] = %d on a %d-node graph", i, v, numNodes)
			}
		}
		if len(fanouts) < 1 || len(fanouts) > maxFanoutLayers {
			t.Fatalf("accepted %d fanout layers, limit %d", len(fanouts), maxFanoutLayers)
		}
		for i, fo := range fanouts {
			if fo < 1 || fo > maxFanout {
				t.Fatalf("accepted fanout[%d] = %d outside [1,%d]", i, fo, maxFanout)
			}
		}
		if core.CheckStrategy(req.Strategy) != nil {
			t.Fatalf("accepted strategy %q", req.Strategy)
		}
		if timeout <= 0 || timeout > maxTimeout {
			t.Fatalf("accepted timeout %v outside (0, %v]", timeout, maxTimeout)
		}
		if req.Features && !hasFeatures {
			t.Fatal("accepted a feature request on a dataset without a feature file")
		}
	})
}
