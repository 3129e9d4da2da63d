package svc

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"bsisa/internal/compile"
	"bsisa/internal/core"
	"bsisa/internal/emu"
	"bsisa/internal/isa"
	"bsisa/internal/testgen"
	"bsisa/internal/uarch"
	"bsisa/internal/workload"
)

func quietConfig() ServerConfig {
	return ServerConfig{
		Workers: 4,
		// One engine worker per job keeps a request for segments on the
		// sequential engines regardless of the host's core count; the
		// segmented engine's routing is exercised separately.
		JobWorkers: 1,
		Logger:     slog.New(slog.NewTextHandler(io.Discard, nil)),
	}
}

// testServer starts a Server behind httptest and tears both down in order
// (listener first, so no handler is still enqueueing when the pool drains).
func testServer(t *testing.T, cfg ServerConfig) (*Server, *httptest.Server) {
	t.Helper()
	s := NewServer(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func post(t *testing.T, ts *httptest.Server, req *SimRequest) (int, *SimResponse) {
	t.Helper()
	blob, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	httpResp, err := http.Post(ts.URL+"/v1/sim", "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	defer httpResp.Body.Close()
	var resp SimResponse
	if err := json.NewDecoder(httpResp.Body).Decode(&resp); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return httpResp.StatusCode, &resp
}

// TestServerMatchesLibraryPath is the API-redesign acceptance check: a sweep
// and a single-config job answered over HTTP must be field-for-field
// identical to the direct compile → record → simulate path the CLI tools
// use, for both ISAs.
func TestServerMatchesLibraryPath(t *testing.T) {
	_, ts := testServer(t, quietConfig())
	seed := int64(42)
	sizes := []int{0, 2048, 4096}

	for _, isaName := range []string{"conv", "bsa"} {
		req := &SimRequest{
			Version: SchemaVersion,
			Program: ProgramSpec{Seed: &seed, ISA: isaName},
			Sweep:   &SweepSpec{ICacheSizes: sizes},
		}
		status, resp := post(t, ts, req)
		if status != http.StatusOK {
			t.Fatalf("%s: status %d: %s", isaName, status, resp.Error)
		}
		if resp.Version != SchemaVersion || resp.Experiment != "sweep" {
			t.Fatalf("%s: envelope %+v", isaName, resp)
		}
		if resp.Engine != "sweep" {
			t.Fatalf("%s: engine %q, want the unified sweep", isaName, resp.Engine)
		}

		// Direct path, sharing only BuildConfig for config assembly.
		plan, err := BuildConfig(req)
		if err != nil {
			t.Fatal(err)
		}
		kind := isa.Conventional
		if isaName == "bsa" {
			kind = isa.BlockStructured
		}
		prog, err := compile.Compile(testgen.Program(seed), "t", compile.DefaultOptions(kind))
		if err != nil {
			t.Fatal(err)
		}
		if kind == isa.BlockStructured {
			if _, err := core.Enlarge(prog, core.Params{}); err != nil {
				t.Fatal(err)
			}
		}
		tr, err := emu.Record(prog, emu.Config{})
		if err != nil {
			t.Fatal(err)
		}
		want, err := uarch.Sweep(tr, plan.Configs, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(resp.Results) != len(want) {
			t.Fatalf("%s: %d results, want %d", isaName, len(resp.Results), len(want))
		}
		for i, w := range want {
			if resp.Results[i] != ResultOf(sizes[i], w) {
				t.Fatalf("%s: result %d diverges:\nservice: %+v\ndirect:  %+v",
					isaName, i, resp.Results[i], ResultOf(sizes[i], w))
			}
		}
	}

	// Single-config jobs on a sweepable backend run as a one-lane sweep.
	req := &SimRequest{
		Version: SchemaVersion,
		Program: ProgramSpec{Seed: &seed, ISA: "conv"},
		Config:  &ConfigSpec{ICache: &CacheSpec{SizeBytes: 2048, Ways: 4}},
	}
	status, resp := post(t, ts, req)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, resp.Error)
	}
	if resp.Engine != "sweep" {
		t.Fatalf("engine %q, want a one-lane sweep for a single config", resp.Engine)
	}
	if resp.Experiment != "sim" || len(resp.Results) != 1 {
		t.Fatalf("envelope %+v", resp)
	}
}

// TestServerPredictorSweep answers a predictor-sensitivity sweep (a sweep
// with predictor axes and no icache sizes) over HTTP and requires (a) the
// unified sweep engine served it, and (b) every result is field-for-field
// identical to the direct library path, for both ISAs.
func TestServerPredictorSweep(t *testing.T) {
	_, ts := testServer(t, quietConfig())
	seed := int64(42)

	for _, isaName := range []string{"conv", "bsa"} {
		req := &SimRequest{
			Version: SchemaVersion,
			Program: ProgramSpec{Seed: &seed, ISA: isaName},
			Sweep: &SweepSpec{
				HistoryBits: []int{2, 8, 16},
				PHTEntries:  []int{1024, 8192},
				Base:        &ConfigSpec{ICache: &CacheSpec{SizeBytes: 2048, Ways: 4}},
			},
		}
		status, resp := post(t, ts, req)
		if status != http.StatusOK {
			t.Fatalf("%s: status %d: %s", isaName, status, resp.Error)
		}
		if resp.Experiment != "sweep" {
			t.Fatalf("%s: experiment %q", isaName, resp.Experiment)
		}
		if resp.Engine != "sweep" {
			t.Fatalf("%s: engine %q, want the unified sweep", isaName, resp.Engine)
		}

		// Direct path, sharing only BuildConfig for config assembly.
		plan, err := BuildConfig(req)
		if err != nil {
			t.Fatal(err)
		}
		kind := isa.Conventional
		if isaName == "bsa" {
			kind = isa.BlockStructured
		}
		prog, err := compile.Compile(testgen.Program(seed), "t", compile.DefaultOptions(kind))
		if err != nil {
			t.Fatal(err)
		}
		if kind == isa.BlockStructured {
			if _, err := core.Enlarge(prog, core.Params{}); err != nil {
				t.Fatal(err)
			}
		}
		tr, err := emu.Record(prog, emu.Config{})
		if err != nil {
			t.Fatal(err)
		}
		want, err := uarch.Sweep(tr, plan.Configs, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(resp.Results) != len(want) {
			t.Fatalf("%s: %d results, want %d", isaName, len(resp.Results), len(want))
		}
		for i, w := range want {
			exp := ResultOf(plan.ICacheBytes[i], w)
			exp.Predictor = plan.Predictors[i]
			got := resp.Results[i]
			if got.Predictor == nil || *got.Predictor != *exp.Predictor {
				t.Fatalf("%s: result %d predictor echo %+v, want %+v",
					isaName, i, got.Predictor, exp.Predictor)
			}
			got.Predictor, exp.Predictor = nil, nil
			if got != exp {
				t.Fatalf("%s: result %d diverges:\nservice: %+v\ndirect:  %+v", isaName, i, got, exp)
			}
		}
		if resp.Table == nil || len(resp.Table.Rows) != len(want) {
			t.Fatalf("%s: table malformed: %+v", isaName, resp.Table)
		}
	}
}

func TestServerRejectsBadRequests(t *testing.T) {
	_, ts := testServer(t, quietConfig())
	cases := []struct {
		name string
		body string
	}{
		{"unknown field", `{"version":2,"bogus":1}`},
		{"wrong version", `{"version":9,"program":{"seed":1,"isa":"conv"},"config":{}}`},
		{"bad geometry", `{"version":2,"program":{"seed":1,"isa":"conv"},"config":{"icache":{"size_bytes":3000}}}`},
		{"no engine selected", `{"version":2,"program":{"seed":1,"isa":"conv"}}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			httpResp, err := http.Post(ts.URL+"/v1/sim", "application/json", bytes.NewReader([]byte(tc.body)))
			if err != nil {
				t.Fatal(err)
			}
			defer httpResp.Body.Close()
			if httpResp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400", httpResp.StatusCode)
			}
			var resp SimResponse
			if err := json.NewDecoder(httpResp.Body).Decode(&resp); err != nil {
				t.Fatal(err)
			}
			if resp.Error == "" {
				t.Fatal("400 envelope carries no error text")
			}
		})
	}
}

// TestServerRejectsOversizedBody sends a syntactically valid request whose
// source field pushes the body past the cap, and expects 413 with the
// too_large code before any compile starts.
func TestServerRejectsOversizedBody(t *testing.T) {
	s, ts := testServer(t, quietConfig())
	src := strings.Repeat("// padding\n", maxRequestBytes/11+1) + "func main() { out(1); }\n"
	blob, err := json.Marshal(&SimRequest{
		Version: SchemaVersion,
		Program: ProgramSpec{Source: src, ISA: "conv"},
		Config:  &ConfigSpec{},
	})
	if err != nil {
		t.Fatal(err)
	}
	httpResp, err := http.Post(ts.URL+"/v1/sim", "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	defer httpResp.Body.Close()
	if httpResp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", httpResp.StatusCode)
	}
	var resp SimResponse
	if err := json.NewDecoder(httpResp.Body).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if resp.ErrorCode != "too_large" {
		t.Fatalf("error_code %q, want too_large (error: %s)", resp.ErrorCode, resp.Error)
	}
	if got := s.metrics.jobsRejected.Load(); got != 1 {
		t.Fatalf("rejections %d, want 1", got)
	}
}

// TestServerJobTimeout posts a job whose deadline cannot be met and expects
// 504 with the context error recorded in the envelope.
func TestServerJobTimeout(t *testing.T) {
	_, ts := testServer(t, quietConfig())
	req := &SimRequest{
		Version:   SchemaVersion,
		Program:   ProgramSpec{Workload: "compress", Scale: 0.5, ISA: "conv"},
		Sweep:     &SweepSpec{ICacheSizes: []int{0, 2048, 4096, 8192}},
		TimeoutMs: 1,
	}
	status, resp := post(t, ts, req)
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status %d (err %q), want 504", status, resp.Error)
	}
	if resp.Error == "" {
		t.Fatal("timeout envelope carries no error text")
	}
}

// TestServerConcurrentCachedLoad fires 32 concurrent identical sweeps and
// requires (a) every answer identical, (b) one compile and one trace
// recording total, with the hit rate visible on /metrics. Some of the 32 may
// coalesce onto a shared pass (they inherit the leader's cache-hit flags),
// so the cache counters are bounded by the number of passes that actually
// ran, not by the request count.
func TestServerConcurrentCachedLoad(t *testing.T) {
	s, ts := testServer(t, quietConfig())
	seed := int64(123)
	mk := func() *SimRequest {
		return &SimRequest{
			Version: SchemaVersion,
			Program: ProgramSpec{Seed: &seed, ISA: "bsa"},
			Sweep:   &SweepSpec{ICacheSizes: []int{0, 2048}},
		}
	}
	// Warm the caches.
	status, first := post(t, ts, mk())
	if status != http.StatusOK {
		t.Fatalf("warmup: status %d: %s", status, first.Error)
	}
	if first.ArtifactCache == nil || first.ArtifactCache.Program || first.ArtifactCache.Trace {
		t.Fatalf("warmup should miss both caches: %+v", first.ArtifactCache)
	}

	const load = 32
	var wg sync.WaitGroup
	resps := make([]*SimResponse, load)
	for i := 0; i < load; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			status, resp := post(t, ts, mk())
			if status != http.StatusOK {
				t.Errorf("request %d: status %d: %s", i, status, resp.Error)
				return
			}
			resps[i] = resp
		}(i)
	}
	wg.Wait()
	for i, resp := range resps {
		if resp == nil {
			t.Fatalf("request %d failed", i)
		}
		if !resp.ArtifactCache.Program || !resp.ArtifactCache.Trace {
			t.Fatalf("request %d missed the artifact cache: %+v", i, resp.ArtifactCache)
		}
		for j, r := range resp.Results {
			if r != first.Results[j] {
				t.Fatalf("request %d result %d diverges from warmup", i, j)
			}
		}
	}
	coalesced := 0
	for _, resp := range resps {
		if resp.Coalesced {
			coalesced++
		}
	}
	if pc := s.programs.counters(); pc.Misses != 1 || pc.Hits < int64(load-coalesced) {
		t.Fatalf("program cache counters %+v, want 1 miss and >= %d hits (%d coalesced)",
			pc, load-coalesced, coalesced)
	}
	if tc := s.traces.counters(); tc.Misses != 1 || tc.Hits < int64(load-coalesced) {
		t.Fatalf("trace cache counters %+v, want 1 miss and >= %d hits (%d coalesced)",
			tc, load-coalesced, coalesced)
	}

	// The same numbers must be visible on /metrics.
	httpResp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(httpResp.Body)
	httpResp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, needle := range []string{
		`bsimd_artifact_cache_events_total{cache="program",event="hit"}`,
		`bsimd_artifact_cache_events_total{cache="trace",event="hit"}`,
		`bsimd_stage_seconds_count{stage="sweep"}`,
		`bsimd_jobs_total`,
	} {
		if !bytes.Contains(body, []byte(needle)) {
			t.Fatalf("/metrics missing %s:\n%s", needle, body)
		}
	}
}

// TestServerDrain checks graceful shutdown: jobs in flight when Close begins
// still complete, and the pool's goroutines are gone afterwards.
func TestServerDrain(t *testing.T) {
	baseline := runtime.NumGoroutine()
	s := NewServer(quietConfig())
	ts := httptest.NewServer(s.Handler())

	seed := int64(9)
	var wg sync.WaitGroup
	codes := make([]int, 8)
	for i := range codes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			codes[i], _ = post(t, ts, &SimRequest{
				Version: SchemaVersion,
				Program: ProgramSpec{Seed: &seed, ISA: "conv"},
				Sweep:   &SweepSpec{ICacheSizes: []int{0, 2048}},
			})
		}(i)
	}
	wg.Wait() // handlers hold jobs open until the pool answers, so all are done
	ts.Close()
	s.Close()
	http.DefaultClient.CloseIdleConnections()
	for i, code := range codes {
		if code != http.StatusOK {
			t.Fatalf("request %d: status %d", i, code)
		}
	}

	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak after drain: %d running, baseline %d",
				runtime.NumGoroutine(), baseline)
		}
		time.Sleep(time.Millisecond)
	}

	// Submitting after Close is refused, not deadlocked or panicking.
	ts2 := httptest.NewServer(s.Handler())
	defer ts2.Close()
	status, resp := post(t, ts2, &SimRequest{
		Version: SchemaVersion,
		Program: ProgramSpec{Seed: &seed, ISA: "conv"},
		Config:  &ConfigSpec{},
	})
	if status != http.StatusServiceUnavailable {
		t.Fatalf("post after Close: status %d (err %q), want 503", status, resp.Error)
	}
}

// TestServerHealthz covers the liveness endpoint.
func TestServerHealthz(t *testing.T) {
	_, ts := testServer(t, quietConfig())
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: status %d", resp.StatusCode)
	}
}

// TestServerWorkloadJob exercises the workload program source end to end
// (the path bsimd's smoke check uses).
func TestServerWorkloadJob(t *testing.T) {
	if _, ok := workload.ProfileByName("compress", 0.02); !ok {
		t.Skip("no compress profile")
	}
	_, ts := testServer(t, quietConfig())
	status, resp := post(t, ts, &SimRequest{
		Version: SchemaVersion,
		Program: ProgramSpec{Workload: "compress", Scale: 0.02, ISA: "conv"},
		Config:  &ConfigSpec{ICache: &CacheSpec{SizeBytes: 4096, Ways: 4}},
	})
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, resp.Error)
	}
	if resp.Scale != 0.02 {
		t.Fatalf("scale not echoed: %+v", resp)
	}
	if resp.Table == nil || len(resp.Table.Rows) != 1 {
		t.Fatalf("table malformed: %+v", resp.Table)
	}
}
