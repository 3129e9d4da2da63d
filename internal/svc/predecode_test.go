package svc

import (
	"net/http"
	"os"
	"reflect"
	"sync"
	"testing"

	"bsisa/internal/emu"
	"bsisa/internal/uarch"
)

// TestServerPredecodeLeavesWithProgram requires the predecoded tables to
// leave the server together with their program: with one-entry program and
// trace caches, the sweeps A, B, A rebuild A's program, so the third sweep
// must flatten afresh (predecode: false) and still answer exactly as the
// first did.
func TestServerPredecodeLeavesWithProgram(t *testing.T) {
	cfg := quietConfig()
	cfg.ProgramCacheEntries = 1
	cfg.TraceCacheEntries = 1
	_, ts := testServer(t, cfg)
	mk := func(seed int64) *SimRequest {
		return &SimRequest{
			Version: SchemaVersion,
			Program: ProgramSpec{Seed: &seed, ISA: "conv"},
			Sweep:   &SweepSpec{ICacheSizes: []int{0, 2048}},
		}
	}
	var resps []*SimResponse
	for _, seed := range []int64{21, 22, 21} {
		status, resp := post(t, ts, mk(seed))
		if status != http.StatusOK {
			t.Fatalf("seed %d: status %d: %s", seed, status, resp.Error)
		}
		if resp.Engine != engineSweep || resp.ArtifactCache == nil {
			t.Fatalf("seed %d: engine %q, artifact cache %+v; want a sweep", seed, resp.Engine, resp.ArtifactCache)
		}
		resps = append(resps, resp)
	}
	if ac := resps[2].ArtifactCache; ac.Program || ac.Predecode {
		t.Fatalf("third sweep reused an evicted program's artifacts: %+v", ac)
	}
	if !reflect.DeepEqual(resps[2].Results, resps[0].Results) {
		t.Fatalf("rebuilt program answers differently:\nfirst: %+v\nthird: %+v", resps[0].Results, resps[2].Results)
	}
}

// TestBuiltProgramPredecodeOnce requires concurrent jobs on one program to
// share one flatten per issue width, and distinct widths to get distinct
// tables.
func TestBuiltProgramPredecodeOnce(t *testing.T) {
	prog, _ := storeTrace(t, 23)
	bp := &builtProgram{prog: prog}
	const callers = 8
	var (
		wg     sync.WaitGroup
		mu     sync.Mutex
		tables = map[*uarch.Predecoded]bool{}
		misses int
	)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pre, hit := bp.predecode(16)
			mu.Lock()
			defer mu.Unlock()
			tables[pre] = true
			if !hit {
				misses++
			}
		}()
	}
	wg.Wait()
	if len(tables) != 1 || misses != 1 {
		t.Fatalf("%d callers saw %d tables and %d misses, want 1 and 1", callers, len(tables), misses)
	}
	narrow, hit := bp.predecode(4)
	if hit || tables[narrow] {
		t.Fatalf("issue width 4 reused the width-16 tables (hit %v)", hit)
	}
}

// TestServerStoreWritesTraceOnly requires a cold sweep to persist the trace
// and nothing else: the store file is exactly the trace's encoding, with no
// aux section.
func TestServerStoreWritesTraceOnly(t *testing.T) {
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := quietConfig()
	cfg.Store = st
	_, ts := testServer(t, cfg)
	seed := int64(24)
	req := &SimRequest{
		Version: SchemaVersion,
		Program: ProgramSpec{Seed: &seed, ISA: "bsa"},
		Sweep:   &SweepSpec{ICacheSizes: []int{0, 4096}},
	}
	status, resp := post(t, ts, req)
	if status != http.StatusOK || resp.Engine != engineSweep {
		t.Fatalf("status %d, engine %q: %s", status, resp.Engine, resp.Error)
	}

	plan, err := BuildConfig(req)
	if err != nil {
		t.Fatal(err)
	}
	bp, err := buildProgram(plan)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := emu.Record(bp.prog, plan.EmuCfg)
	if err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(st.path(traceKey(programKey(plan.Program), plan.EmuCfg.MaxOps)))
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(len(tr.EncodeBytes(nil))); fi.Size() != want {
		t.Fatalf("store file is %d bytes, want the bare trace's %d", fi.Size(), want)
	}
}
