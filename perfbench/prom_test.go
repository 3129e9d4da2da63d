package main

import (
	"math"
	"testing"
)

const promBefore = `# HELP bsimd_jobs_total Simulation jobs accepted onto the worker pool.
# TYPE bsimd_jobs_total counter
bsimd_jobs_total 10
bsimd_coalesced_requests_total 1
bsimd_store_mmap_events_total{event="map"} 4
bsimd_artifact_cache_events_total{cache="trace",event="hit"} 5
bsimd_artifact_cache_events_total{cache="trace",event="miss"} 5
bsimd_stage_seconds_sum{stage="segreplay"} 1.5
bsimd_stage_seconds_bucket{stage="segreplay",le="+Inf"} 8
`

const promAfter = `bsimd_jobs_total 30
bsimd_coalesced_requests_total 3
bsimd_store_mmap_events_total{event="map"} 10
bsimd_artifact_cache_events_total{cache="trace",event="hit"} 20
bsimd_artifact_cache_events_total{cache="trace",event="miss"} 10
bsimd_artifact_cache_events_total{cache="program",event="hit"} 20
bsimd_stage_seconds_sum{stage="segreplay"} 2.25
bsimd_stage_seconds_bucket{stage="segreplay",le="+Inf"} 20
`

func TestPromDelta(t *testing.T) {
	before, err := parseProm(promBefore)
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseProm(promAfter)
	if err != nil {
		t.Fatal(err)
	}
	d := after.delta(before)
	if d["bsimd_jobs_total"] != 20 || d["bsimd_coalesced_requests_total"] != 2 {
		t.Errorf("counter deltas: %v", d)
	}
	if v := d[`bsimd_store_mmap_events_total{event="map"}`]; v != 6 {
		t.Errorf("labelled counter delta = %g, want 6", v)
	}
	if v := d.stageMs("segreplay"); math.Abs(v-750) > 1e-9 {
		t.Errorf("stage busy delta = %g ms, want 750", v)
	}
	if v := d.hitRatio("trace"); math.Abs(v-0.75) > 1e-12 {
		t.Errorf("trace hit ratio = %g, want 15/20", v)
	}
	// A series new in the second scrape counts from zero.
	if v := d.hitRatio("program"); v != 1 {
		t.Errorf("program hit ratio = %g, want 1", v)
	}
	if v := d.hitRatio("predecode"); v != 0 {
		t.Errorf("unused cache hit ratio = %g, want 0", v)
	}
}

func TestPromRejectsMalformedLines(t *testing.T) {
	for _, text := range []string{"bsimd_jobs_total\n", "bsimd_jobs_total ten\n"} {
		if _, err := parseProm(text); err == nil {
			t.Errorf("parseProm(%q) accepted a malformed line", text)
		}
	}
}

func TestPromParsesLiveServer(t *testing.T) {
	s, err := startService(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	m, err := s.metrics()
	if err != nil {
		t.Fatal(err)
	}
	for _, series := range []string{
		"bsimd_jobs_total",
		`bsimd_stage_seconds_sum{stage="compile"}`,
		`bsimd_artifact_cache_events_total{cache="trace",event="miss"}`,
		`bsimd_store_mmap_events_total{event="map"}`,
		"bsimd_coalesced_requests_total",
	} {
		if _, ok := m[series]; !ok {
			t.Errorf("live /metrics has no series %s", series)
		}
	}
}
