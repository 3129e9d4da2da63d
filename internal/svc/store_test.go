package svc

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"bsisa/internal/compile"
	"bsisa/internal/emu"
	"bsisa/internal/isa"
	"bsisa/internal/testgen"
)

// storeTrace records a small deterministic trace for store tests.
func storeTrace(t *testing.T, seed int64) (*isa.Program, *emu.Trace) {
	t.Helper()
	prog, err := compile.Compile(testgen.Program(seed), "t", compile.DefaultOptions(isa.Conventional))
	if err != nil {
		t.Fatal(err)
	}
	tr, err := emu.Record(prog, emu.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return prog, tr
}

// requireSame asserts the loaded trace is the recorded one, field for field:
// same event stream, same emulator result, and a byte-identical re-encode.
func requireSame(t *testing.T, want, got *emu.Trace, wantAux, gotAux []emu.AuxSection) {
	t.Helper()
	if !reflect.DeepEqual(got.BlockIDs(), want.BlockIDs()) {
		t.Fatal("loaded trace's event stream diverges")
	}
	if !reflect.DeepEqual(got.EmuResult(), want.EmuResult()) {
		t.Fatalf("loaded trace's result diverges: %+v vs %+v", got.EmuResult(), want.EmuResult())
	}
	if got.EmuConfig() != want.EmuConfig() {
		t.Fatalf("loaded trace's config diverges: %+v vs %+v", got.EmuConfig(), want.EmuConfig())
	}
	if !bytes.Equal(got.EncodeBytes(gotAux), want.EncodeBytes(wantAux)) {
		t.Fatal("loaded trace does not re-encode byte-identically")
	}
	if !reflect.DeepEqual(gotAux, wantAux) {
		t.Fatalf("aux sections diverge: %+v vs %+v", gotAux, wantAux)
	}
}

// loadMapped serves key through the store's mmap tier and returns the trace
// and its aux sections; the mapping is released when the test ends.
func loadMapped(t *testing.T, st *Store, key string, prog *isa.Program, cfg emu.Config) (*emu.Trace, []emu.AuxSection, bool) {
	t.Helper()
	m, ok := st.LoadTraceMapped(key, prog, cfg)
	if !ok {
		return nil, nil, false
	}
	t.Cleanup(m.Release)
	return m.Trace(), m.Aux(), true
}

func TestStoreRoundTrip(t *testing.T) {
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	prog, tr := storeTrace(t, 4242)
	key := traceKey("prog-a", 0)

	if _, _, ok := loadMapped(t, st, key, prog, emu.Config{}); ok {
		t.Fatal("cold store claims a hit")
	}
	aux := []emu.AuxSection{{Tag: 16, Data: []byte("predecode-blob")}}
	if err := st.SaveTrace(key, tr, aux); err != nil {
		t.Fatal(err)
	}
	got, gotAux, ok := loadMapped(t, st, key, prog, emu.Config{})
	if !ok {
		t.Fatal("stored trace not served back")
	}
	requireSame(t, tr, got, aux, gotAux)

	cc := st.counters()
	if cc.Hits != 1 || cc.Misses != 1 || cc.Writes != 1 || cc.Corruptions != 0 {
		t.Fatalf("counters = %+v, want 1 hit / 1 miss / 1 write", cc)
	}
	if cc.BytesRead == 0 || cc.BytesWritten == 0 || cc.BytesRead != cc.BytesWritten {
		t.Fatalf("byte counters = %+v, want equal nonzero read/written", cc)
	}

	// A second store opened on the same directory serves the same bytes: the
	// restart warm-start contract.
	st2, err := NewStore(st.Dir())
	if err != nil {
		t.Fatal(err)
	}
	got2, gotAux2, ok := loadMapped(t, st2, key, prog, emu.Config{})
	if !ok {
		t.Fatal("reopened store misses a persisted trace")
	}
	requireSame(t, tr, got2, aux, gotAux2)
}

// TestStoreQuarantinesCorruption damages the stored file every way the
// acceptance criteria name — truncation, a flipped byte, a wrong format
// version — and requires each to be detected, quarantined, and rebuilt
// rather than served or fatal. The superseded v1/v2 versions take exactly
// this path: the file is quarantined and counted as corrupt, the trace is
// re-recorded, and the rewrite is served from the mmap tier.
func TestStoreQuarantinesCorruption(t *testing.T) {
	prog, tr := storeTrace(t, 4243)
	good := tr.EncodeBytes(nil)
	corruptions := []struct {
		name string
		mut  func([]byte) []byte
	}{
		{"truncated", func(b []byte) []byte { return b[:len(b)/2] }},
		{"flipped-byte", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[len(c)/3] ^= 0x40
			return c
		}},
		{"wrong-version", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[4] = 99
			return c
		}},
		{"v1", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[4] = 1
			return c
		}},
		{"v2", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[4] = 2
			return c
		}},
		{"empty", func(b []byte) []byte { return nil }},
	}
	for _, tc := range corruptions {
		t.Run(tc.name, func(t *testing.T) {
			st, err := NewStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			key := traceKey("prog-b", 0)
			p := st.path(key)
			if err := os.WriteFile(p, tc.mut(good), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, _, ok := loadMapped(t, st, key, prog, emu.Config{}); ok {
				t.Fatal("corrupt file served as a hit")
			}
			cc := st.counters()
			if cc.Corruptions != 1 || cc.Hits != 0 {
				t.Fatalf("counters = %+v, want 1 corruption / 0 hits", cc)
			}
			if _, err := os.Stat(p); !os.IsNotExist(err) {
				t.Fatal("corrupt file still resolvable under its key")
			}
			if _, err := os.Stat(p + ".corrupt"); err != nil {
				t.Fatalf("corrupt file not quarantined: %v", err)
			}
			// The key is not poisoned: a re-recording writes through and is
			// served from the mmap tier.
			fresh, err := emu.Record(prog, emu.Config{})
			if err != nil {
				t.Fatal(err)
			}
			if err := st.SaveTrace(key, fresh, nil); err != nil {
				t.Fatal(err)
			}
			got, gotAux, ok := loadMapped(t, st, key, prog, emu.Config{})
			if !ok {
				t.Fatal("re-recorded trace not served")
			}
			requireSame(t, tr, got, nil, gotAux)
		})
	}
}

// TestStoreRejectsMismatchedContent covers the two "right checksum, wrong
// artifact" cases: a file decoded against a different program, and a file
// whose emulation budget does not match the key's. Both quarantine.
func TestStoreRejectsMismatchedContent(t *testing.T) {
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	prog, tr := storeTrace(t, 4244)
	other, _ := storeTrace(t, 4245)

	key := traceKey("prog-c", 0)
	if err := st.SaveTrace(key, tr, nil); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := loadMapped(t, st, key, other, emu.Config{}); ok {
		t.Fatal("trace served against the wrong program")
	}
	if cc := st.counters(); cc.Corruptions != 1 {
		t.Fatalf("counters = %+v, want 1 corruption", cc)
	}

	if err := st.SaveTrace(key, tr, nil); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := loadMapped(t, st, key, prog, emu.Config{MaxOps: 12345}); ok {
		t.Fatal("trace served under the wrong emulation budget")
	}
	if cc := st.counters(); cc.Corruptions != 2 {
		t.Fatalf("counters = %+v, want 2 corruptions", cc)
	}
}

// TestServerStoreWarmStart is the end-to-end restart contract: a second
// server pointed at the first one's store directory answers the same sweep
// identically without recording a single trace — the store, not the
// emulator, supplies the artifact — and without writing to the store.
func TestServerStoreWarmStart(t *testing.T) {
	dir := t.TempDir()
	seed := int64(4247)
	req := func(id string) *SimRequest {
		return &SimRequest{
			Version: SchemaVersion,
			ID:      id,
			Program: ProgramSpec{Seed: &seed, ISA: "bsa"},
			Sweep:   &SweepSpec{ICacheSizes: []int{0, 2048, 8192}},
		}
	}

	cfgA := quietConfig()
	stA, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfgA.Store = stA
	sA, tsA := testServer(t, cfgA)
	status, cold := post(t, tsA, req("cold"))
	if status != 200 {
		t.Fatalf("cold run: status %d: %s", status, cold.Error)
	}
	if cold.ArtifactCache == nil || cold.ArtifactCache.Store {
		t.Fatalf("cold run claims a store-served trace: %+v", cold.ArtifactCache)
	}
	if n := sA.metrics.traceRecords.Load(); n != 1 {
		t.Fatalf("cold run recorded %d traces, want 1", n)
	}
	// The sweep job saves its recording in one write.
	if cc := stA.counters(); cc.Writes != 1 {
		t.Fatalf("store counters after cold run = %+v, want exactly 1 write", cc)
	}

	cfgB := quietConfig()
	stB, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfgB.Store = stB
	sB, tsB := testServer(t, cfgB)
	status, warm := post(t, tsB, req("warm"))
	if status != 200 {
		t.Fatalf("warm run: status %d: %s", status, warm.Error)
	}
	if warm.ArtifactCache == nil || !warm.ArtifactCache.Store {
		t.Fatalf("warm run not served from the store: %+v", warm.ArtifactCache)
	}
	if n := sB.metrics.traceRecords.Load(); n != 0 {
		t.Fatalf("warm run recorded %d traces, want 0", n)
	}
	cc := stB.counters()
	if cc.Hits != 1 || cc.Corruptions != 0 {
		t.Fatalf("store counters after warm run = %+v, want 1 hit / 0 corruptions", cc)
	}
	// A store hit is read-only: the warm server writes nothing back.
	if cc.Writes != 0 {
		t.Fatalf("warm run wrote %d store files, want 0", cc.Writes)
	}
	if !reflect.DeepEqual(warm.Results, cold.Results) {
		t.Fatalf("warm results diverge from cold:\nwarm: %+v\ncold: %+v", warm.Results, cold.Results)
	}
}

// TestStoreConcurrentWriters races writers (of identical content) and readers
// on one key: atomic temp+rename means a reader sees a complete file or
// nothing, never a prefix, and the surviving file validates.
func TestStoreConcurrentWriters(t *testing.T) {
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	prog, tr := storeTrace(t, 4246)
	key := traceKey("prog-d", 0)

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				if err := st.SaveTrace(key, tr, nil); err != nil {
					t.Errorf("save: %v", err)
					return
				}
				if m, ok := st.LoadTraceMapped(key, prog, emu.Config{}); ok {
					requireSame(t, tr, m.Trace(), nil, m.Aux())
					m.Release()
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if cc := st.counters(); cc.Corruptions != 0 {
		t.Fatalf("counters = %+v, want no corruptions from racing writers", cc)
	}
	got, gotAux, ok := loadMapped(t, st, key, prog, emu.Config{})
	if !ok {
		t.Fatal("surviving file not served")
	}
	requireSame(t, tr, got, nil, gotAux)
	// No temp-file litter once the dust settles.
	entries, err := os.ReadDir(st.Dir())
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".bstr-tmp-") {
			t.Fatalf("leftover temp file %s", filepath.Join(st.Dir(), e.Name()))
		}
	}
}
