package svc

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"testing"
	"time"

	"bsisa/internal/compile"
	"bsisa/internal/emu"
	"bsisa/internal/isa"
	"bsisa/internal/testgen"
	"bsisa/internal/uarch"
	"bsisa/internal/workload"
)

// TestCoalescerSingleLeader races N joiners on one key and requires exactly
// one leader; finish releases every follower with the leader's outcome.
func TestCoalescerSingleLeader(t *testing.T) {
	c := newCoalescer()
	const n = 64
	var wg sync.WaitGroup
	leaders := make([]bool, n)
	flights := make([]*flight, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			flights[i], leaders[i] = c.join("k")
		}(i)
	}
	wg.Wait()
	leaderIdx := -1
	for i, l := range leaders {
		if l {
			if leaderIdx >= 0 {
				t.Fatalf("joiners %d and %d both lead", leaderIdx, i)
			}
			leaderIdx = i
		}
	}
	if leaderIdx < 0 {
		t.Fatal("no joiner leads")
	}
	want := jobOutcome{err: errors.New("published")}
	c.finish("k", flights[leaderIdx], want)
	for i, f := range flights {
		select {
		case <-f.done:
		case <-time.After(time.Second):
			t.Fatalf("follower %d never released", i)
		}
		if f.out.err == nil || f.out.err.Error() != "published" {
			t.Fatalf("follower %d outcome %+v, want the leader's", i, f.out)
		}
	}
}

// TestCoalescerFinishRetiresFlight requires a join after finish to start a
// fresh flight (lead again) rather than observing the stale outcome.
func TestCoalescerFinishRetiresFlight(t *testing.T) {
	c := newCoalescer()
	f1, leader := c.join("k")
	if !leader {
		t.Fatal("first join must lead")
	}
	c.finish("k", f1, jobOutcome{})
	if _, leader := c.join("k"); !leader {
		t.Fatal("join after finish must lead a fresh flight")
	}
	// Distinct keys fly independently.
	if _, leader := c.join("other"); !leader {
		t.Fatal("distinct key must lead its own flight")
	}
}

// TestCoalesceKeyCoverage checks the key covers what determines the answer
// (program, budget, configs, segments) and ignores what does not (ID,
// timeout).
func TestCoalesceKeyCoverage(t *testing.T) {
	seed := int64(7)
	mk := func(mut func(*SimRequest)) string {
		req := &SimRequest{
			Version:   SchemaVersion,
			ID:        "a",
			TimeoutMs: 1000,
			Program:   ProgramSpec{Seed: &seed, ISA: "conv"},
			Config:    &ConfigSpec{ICache: &CacheSpec{SizeBytes: 2048, Ways: 4}},
		}
		if mut != nil {
			mut(req)
		}
		plan, err := BuildConfig(req)
		if err != nil {
			t.Fatal(err)
		}
		return coalesceKey(plan)
	}
	base := mk(nil)
	if mk(func(r *SimRequest) { r.ID = "b"; r.TimeoutMs = 5 }) != base {
		t.Fatal("key must ignore request ID and timeout")
	}
	if mk(func(r *SimRequest) { r.Config.ICache.SizeBytes = 4096 }) == base {
		t.Fatal("key must cover the configuration")
	}
	if mk(func(r *SimRequest) { r.Segments = 4 }) == base {
		t.Fatal("key must cover the segment hint")
	}
	if mk(func(r *SimRequest) { r.EmuMaxOps = 500 }) == base {
		t.Fatal("key must cover the emulation budget")
	}
}

// TestBuildConfigSegments covers the segments field's validation: negative
// counts and non-single-config requests are bad requests; a single-config
// request carries the hint into the plan.
func TestBuildConfigSegments(t *testing.T) {
	seed := int64(7)
	prog := ProgramSpec{Seed: &seed, ISA: "conv"}
	cases := []struct {
		name string
		req  *SimRequest
		ok   bool
	}{
		{"negative", &SimRequest{Version: SchemaVersion, Program: prog,
			Config: &ConfigSpec{}, Segments: -1}, false},
		{"with sweep", &SimRequest{Version: SchemaVersion, Program: prog,
			Sweep: &SweepSpec{ICacheSizes: []int{0, 2048}}, Segments: 4}, false},
		{"with predsweep", &SimRequest{Version: SchemaVersion, Program: prog,
			Sweep: &SweepSpec{HistoryBits: []int{2, 8}}, Segments: 4}, false},
		{"single config", &SimRequest{Version: SchemaVersion, Program: prog,
			Config: &ConfigSpec{}, Segments: 4}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			plan, err := BuildConfig(tc.req)
			if tc.ok {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				if plan.Segments != tc.req.Segments {
					t.Fatalf("plan.Segments = %d, want %d", plan.Segments, tc.req.Segments)
				}
				return
			}
			if !errors.Is(err, ErrBadRequest) {
				t.Fatalf("error %v, want ErrBadRequest", err)
			}
		})
	}
}

// TestServerSegmentedEngine gives the server engine workers to spend and
// requires a single-config job that asks for segments to route through the
// segment-parallel engine, with the answer field-for-field identical to
// sequential replay, and the same job without segments to run as a one-lane
// sweep with the same answer.
func TestServerSegmentedEngine(t *testing.T) {
	cfg := quietConfig()
	cfg.JobWorkers = 4
	s, ts := testServer(t, cfg)
	seed := int64(42)
	req := &SimRequest{
		Version:  SchemaVersion,
		Program:  ProgramSpec{Seed: &seed, ISA: "conv"},
		Config:   &ConfigSpec{ICache: &CacheSpec{SizeBytes: 2048, Ways: 4}},
		Segments: 4,
	}
	status, resp := post(t, ts, req)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, resp.Error)
	}
	if resp.Engine != engineSegmented {
		t.Fatalf("engine %q, want %q", resp.Engine, engineSegmented)
	}

	plan, err := BuildConfig(req)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := compile.Compile(testgen.Program(seed), "t", compile.DefaultOptions(isa.Conventional))
	if err != nil {
		t.Fatal(err)
	}
	tr, err := emu.Record(prog, emu.Config{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := uarch.ReplayTrace(tr, plan.Configs[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 1 || resp.Results[0] != ResultOf(plan.ICacheBytes[0], want) {
		t.Fatalf("segmented answer diverges from sequential replay:\nservice: %+v\ndirect:  %+v",
			resp.Results, ResultOf(plan.ICacheBytes[0], want))
	}
	if n := s.metrics.segDone.Load(); n < 1 {
		t.Fatalf("segments_completed = %d, want >= 1", n)
	}
	if got := s.metrics.segQueued.Load(); got != 0 {
		t.Fatalf("segment queue depth %d after the job drained, want 0", got)
	}

	// Without segments the same config is a one-lane sweep.
	single := *req
	single.Segments = 0
	status, resp = post(t, ts, &single)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, resp.Error)
	}
	if resp.Engine != engineSweep {
		t.Fatalf("engine %q without segments, want %q", resp.Engine, engineSweep)
	}
	if len(resp.Results) != 1 || resp.Results[0] != ResultOf(plan.ICacheBytes[0], want) {
		t.Fatalf("one-lane sweep diverges from sequential replay:\nservice: %+v\ndirect:  %+v",
			resp.Results, ResultOf(plan.ICacheBytes[0], want))
	}

	// Configs the segment engine cannot serve fall back to per-config replay
	// even with workers to spend.
	tcReq := &SimRequest{
		Version: SchemaVersion,
		Program: ProgramSpec{Seed: &seed, ISA: "conv"},
		Config:  &ConfigSpec{ICache: &CacheSpec{SizeBytes: 2048, Ways: 4}},
	}
	tcPlan, err := BuildConfig(tcReq)
	if err != nil {
		t.Fatal(err)
	}
	if !uarch.CanSegment(tcPlan.Configs[0]) {
		t.Fatal("plain config should be segmentable")
	}
}

// TestServerCoalescesIdenticalRequests is the deterministic N→1 check: one
// pool worker, a slower occupier job holding it, then N identical requests —
// exactly one leads (queued behind the occupier), the rest share its pass.
// The occupier runs at full scale so the worker stays held (and the leader's
// flight stays open) until every follower's request has joined; a fast
// occupier lets the flight close under late followers, which then lead
// flights of their own.
func TestServerCoalescesIdenticalRequests(t *testing.T) {
	if _, ok := workload.ProfileByName("compress", 1.0); !ok {
		t.Skip("no compress profile")
	}
	cfg := quietConfig()
	cfg.Workers = 1
	cfg.QueueDepth = 2
	s, ts := testServer(t, cfg)

	occDone := make(chan struct{})
	go func() {
		defer close(occDone)
		status, resp := post(t, ts, &SimRequest{
			Version: SchemaVersion,
			Program: ProgramSpec{Workload: "compress", Scale: 1.0, ISA: "conv"},
			Sweep:   &SweepSpec{ICacheSizes: []int{0, 8192, 16384}},
		})
		if status != http.StatusOK {
			t.Errorf("occupier: status %d: %s", status, resp.Error)
		}
	}()
	deadline := time.Now().Add(10 * time.Second)
	for s.metrics.inFlight.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("occupier never started executing")
		}
		time.Sleep(time.Millisecond)
	}

	seed := int64(321)
	const n = 16
	var wg sync.WaitGroup
	resps := make([]*SimResponse, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			status, resp := post(t, ts, &SimRequest{
				Version: SchemaVersion,
				ID:      fmt.Sprintf("req-%d", i),
				Program: ProgramSpec{Seed: &seed, ISA: "conv"},
				Sweep:   &SweepSpec{ICacheSizes: []int{0, 2048}},
			})
			if status != http.StatusOK {
				t.Errorf("request %d: status %d: %s", i, status, resp.Error)
				return
			}
			resps[i] = resp
		}(i)
	}
	wg.Wait()
	<-occDone
	if t.Failed() {
		t.FailNow()
	}
	coalesced := 0
	for i, resp := range resps {
		if resp.ID != fmt.Sprintf("req-%d", i) {
			t.Fatalf("request %d answered with id %q", i, resp.ID)
		}
		if resp.Coalesced {
			coalesced++
		}
		for j, r := range resp.Results {
			if r != resps[0].Results[j] {
				t.Fatalf("request %d result %d diverges", i, j)
			}
		}
	}
	if coalesced != n-1 {
		t.Fatalf("%d of %d identical requests coalesced, want %d", coalesced, n, n-1)
	}
	if got := s.metrics.coalesced.Load(); got != n-1 {
		t.Fatalf("coalesced counter = %d, want %d", got, n-1)
	}
	// Two passes total: the occupier and the leader.
	if got := s.metrics.jobsTotal.Load(); got != 2 {
		t.Fatalf("jobsTotal = %d, want 2 (occupier + one leader)", got)
	}
}

// flightCount reports how many coalescer flights are currently open.
func flightCount(s *Server) int {
	s.coal.mu.Lock()
	defer s.coal.mu.Unlock()
	return len(s.coal.flights)
}

// TestFollowersSharePlanDeadlineOutcome is the retry-storm regression test:
// when the leader's pass exceeds the *plan's own* deadline, followers must
// share that outcome instead of serially re-running the same doomed pass.
// One worker is held by a deliberately slow occupier; a leader with a short
// timeout queues behind it (alive at enqueue, long expired when it finally
// executes), and followers with generous timeouts join its flight. Before
// the fix every follower re-ran the pass in turn; now the doomed outcome is
// shared and the pool sees exactly two jobs (occupier + leader).
func TestFollowersSharePlanDeadlineOutcome(t *testing.T) {
	if _, ok := workload.ProfileByName("compress", 1.0); !ok {
		t.Skip("no compress profile")
	}
	cfg := quietConfig()
	cfg.Workers = 1
	cfg.QueueDepth = 2
	s, ts := testServer(t, cfg)

	occDone := make(chan struct{})
	go func() {
		defer close(occDone)
		status, resp := post(t, ts, &SimRequest{
			Version: SchemaVersion,
			Program: ProgramSpec{Workload: "compress", Scale: 1.0, ISA: "conv"},
			Sweep:   &SweepSpec{ICacheSizes: []int{0, 8192, 16384}},
		})
		if status != http.StatusOK {
			t.Errorf("occupier: status %d: %s", status, resp.Error)
		}
	}()
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("%s never happened", what)
			}
			time.Sleep(time.Millisecond)
		}
	}
	waitFor("occupier executing", func() bool { return s.metrics.inFlight.Load() == 1 })

	seed := int64(777)
	doomed := func(id string, timeoutMs int64) *SimRequest {
		return &SimRequest{
			Version:   SchemaVersion,
			ID:        id,
			TimeoutMs: timeoutMs,
			Program:   ProgramSpec{Seed: &seed, ISA: "conv"},
			Sweep:     &SweepSpec{ICacheSizes: []int{0, 2048}},
		}
	}
	// 30ms: comfortably alive while the handler enqueues the job (so the
	// enqueue-vs-expired select cannot race), long expired by the time the
	// occupier releases the worker and the job actually executes.
	leaderDone := make(chan int, 1)
	go func() {
		status, _ := post(t, ts, doomed("leader", 30))
		leaderDone <- status
	}()
	// The coalesce key ignores timeout_ms, so the followers join the doomed
	// leader's flight once it is open. (The occupier holds a flight of its
	// own, hence 2.) Also require the leader's job to be sitting in the pool
	// queue: that pins the doomed outcome to the plan-deadline path rather
	// than a queue-full rejection.
	waitFor("leader's flight opening", func() bool { return flightCount(s) == 2 })
	waitFor("leader's job queueing", func() bool { return s.metrics.queued.Load() >= 1 })

	const n = 8
	var wg sync.WaitGroup
	statuses := make([]int, n)
	resps := make([]*SimResponse, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			statuses[i], resps[i] = post(t, ts, doomed(fmt.Sprintf("f-%d", i), 60_000))
		}(i)
	}
	wg.Wait()
	if status := <-leaderDone; status != http.StatusGatewayTimeout {
		t.Fatalf("leader status %d, want 504", status)
	}
	<-occDone
	if t.Failed() {
		t.FailNow()
	}
	for i := 0; i < n; i++ {
		if statuses[i] != http.StatusGatewayTimeout {
			t.Fatalf("follower %d: status %d, want 504 shared from the doomed pass", i, statuses[i])
		}
		if !resps[i].Coalesced {
			t.Fatalf("follower %d: outcome not marked coalesced: %+v", i, resps[i])
		}
		if resps[i].ID != fmt.Sprintf("f-%d", i) {
			t.Fatalf("follower %d answered with id %q", i, resps[i].ID)
		}
	}
	if got := s.metrics.coalesced.Load(); got != n {
		t.Fatalf("coalesced counter = %d, want %d", got, n)
	}
	// The storm signature: before the fix this was 2+n (every follower
	// re-ran the doomed pass).
	if got := s.metrics.jobsTotal.Load(); got != 2 {
		t.Fatalf("jobsTotal = %d, want 2 (occupier + doomed leader only)", got)
	}
}

// TestFollowerRetriesLeaderLifetimeOutcome pins the other half of the
// distinction: when the leader dies of its own lifetime (its client
// disconnects), a follower must NOT inherit that outcome — it retries, leads
// its own flight, and gets the real answer.
func TestFollowerRetriesLeaderLifetimeOutcome(t *testing.T) {
	if _, ok := workload.ProfileByName("compress", 1.0); !ok {
		t.Skip("no compress profile")
	}
	cfg := quietConfig()
	cfg.Workers = 1
	cfg.QueueDepth = 2
	s, ts := testServer(t, cfg)

	occDone := make(chan struct{})
	go func() {
		defer close(occDone)
		status, resp := post(t, ts, &SimRequest{
			Version: SchemaVersion,
			Program: ProgramSpec{Workload: "compress", Scale: 1.0, ISA: "conv"},
			Sweep:   &SweepSpec{ICacheSizes: []int{0, 8192}},
		})
		if status != http.StatusOK {
			t.Errorf("occupier: status %d: %s", status, resp.Error)
		}
	}()
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("%s never happened", what)
			}
			time.Sleep(time.Millisecond)
		}
	}
	waitFor("occupier executing", func() bool { return s.metrics.inFlight.Load() == 1 })

	seed := int64(778)
	mk := func(id string) *SimRequest {
		return &SimRequest{
			Version: SchemaVersion,
			ID:      id,
			Program: ProgramSpec{Seed: &seed, ISA: "conv"},
			Sweep:   &SweepSpec{ICacheSizes: []int{0, 2048}},
		}
	}
	// Leader whose client goes away while it is queued behind the occupier.
	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	leaderGone := make(chan struct{})
	go func() {
		defer close(leaderGone)
		blob, _ := json.Marshal(mk("leader"))
		httpReq, _ := http.NewRequestWithContext(leaderCtx, http.MethodPost,
			ts.URL+"/v1/sim", bytes.NewReader(blob))
		httpReq.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(httpReq)
		if err == nil {
			resp.Body.Close()
		}
	}()
	// The occupier holds a flight of its own, hence 2.
	waitFor("leader's flight opening", func() bool { return flightCount(s) == 2 })

	followerDone := make(chan struct{})
	var status int
	var resp *SimResponse
	go func() {
		defer close(followerDone)
		status, resp = post(t, ts, mk("follower"))
	}()
	// Let the follower park on the flight, then kill the leader's client.
	time.Sleep(50 * time.Millisecond)
	cancelLeader()
	<-leaderGone
	<-followerDone
	<-occDone
	if t.Failed() {
		t.FailNow()
	}
	if status != http.StatusOK {
		t.Fatalf("follower status %d (%s), want 200 from its own retried pass", status, resp.Error)
	}
	if resp.Coalesced {
		t.Fatal("follower shared the dead leader's outcome instead of retrying")
	}
	if resp.ID != "follower" {
		t.Fatalf("follower answered with id %q", resp.ID)
	}
}

// TestServerPredecodeCache requires repeated sweeps over one program to reuse
// the program artifact's predecoded op tables, and the reuse to be reported
// in the envelope and the memo counters.
func TestServerPredecodeCache(t *testing.T) {
	s, ts := testServer(t, quietConfig())
	seed := int64(11)
	mk := func() *SimRequest {
		return &SimRequest{
			Version: SchemaVersion,
			Program: ProgramSpec{Seed: &seed, ISA: "conv"},
			Sweep:   &SweepSpec{ICacheSizes: []int{0, 2048, 4096}},
		}
	}
	status, first := post(t, ts, mk())
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, first.Error)
	}
	if first.ArtifactCache == nil || first.ArtifactCache.Predecode {
		t.Fatalf("first sweep should miss the predecode cache: %+v", first.ArtifactCache)
	}
	status, second := post(t, ts, mk())
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, second.Error)
	}
	if !second.ArtifactCache.Predecode {
		t.Fatalf("second sweep should hit the predecode cache: %+v", second.ArtifactCache)
	}
	for i, r := range second.Results {
		if r != first.Results[i] {
			t.Fatalf("result %d diverges across the predecode cache hit", i)
		}
	}
	if hits, misses := s.metrics.predecodeHits.Load(), s.metrics.predecodeMisses.Load(); misses != 1 || hits < 1 {
		t.Fatalf("predecode memo counters: %d hits, %d misses; want 1 miss and >= 1 hit", hits, misses)
	}
}
