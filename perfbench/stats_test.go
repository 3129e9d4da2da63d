package main

import (
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: tailOf must sort
	}
	return xs
}

func TestTailOfPicksHighestPercentileWithTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n, pct, beyond int
		value          float64
	}{
		{n: 1000, pct: 99, beyond: 10, value: 990},
		{n: 100, pct: 90, beyond: 10, value: 90},
		{n: 42, pct: 76, beyond: 10, value: 32},
		{n: 180, pct: 94, beyond: 10, value: 170},
		{n: 20, pct: 50, beyond: 10, value: 10},
	} {
		got := tailOf(seq(tc.n))
		if got.Percentile != tc.pct || got.Beyond != tc.beyond || got.Samples != tc.n || got.Value != tc.value {
			t.Errorf("n=%d: got %+v, want p%d value %g with %d beyond", tc.n, got, tc.pct, tc.value, tc.beyond)
		}
	}
}

func TestTailOfThinSampleReportsMax(t *testing.T) {
	got := tailOf(seq(8))
	if got.Percentile != 100 || got.Value != 8 || got.Beyond != 0 || got.Samples != 8 {
		t.Fatalf("got %+v, want the maximum as p100 with nothing beyond", got)
	}
	if z := tailOf(nil); z != (tail{}) {
		t.Fatalf("empty sample: got %+v", z)
	}
}

func TestMedianAndNearestRank(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median = %g", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median = %g", m)
	}
	s := sortedCopy(seq(10))
	if v := nearestRank(s, 99); v != 10 {
		t.Errorf("p99 of 1..10 = %g", v)
	}
	if v := nearestRank(s, 50); v != 5 {
		t.Errorf("p50 of 1..10 = %g", v)
	}
}

func TestSelfTimeSubtractsOverlappingChildrenOnce(t *testing.T) {
	ms := int64(time.Millisecond)
	spans := []span{
		{ID: 1, Layer: "bench", Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Layer: "svc", Start: 10 * ms, End: 40 * ms},
		{ID: 3, Parent: 1, Layer: "svc", Start: 30 * ms, End: 60 * ms}, // overlaps span 2
		{ID: 4, Parent: 1, Layer: "uarch", Start: 90 * ms, End: 120 * ms},
		{ID: 5, Parent: 2, Layer: "uarch", Start: 15 * ms, End: 20 * ms},
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{
		1: 100*time.Millisecond - 50*time.Millisecond - 10*time.Millisecond, // covered: 10..60 and 90..100
		2: 25 * time.Millisecond,
		3: 30 * time.Millisecond,
		4: 30 * time.Millisecond,
		5: 5 * time.Millisecond,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d self = %v, want %v", id, self[id], w)
		}
	}
}

func TestTracerNilIsInert(t *testing.T) {
	var tr *tracer
	id := tr.start(0, "bench", "x", 0)
	tr.end(id)
	tr.setWork(id, 1, 1)
	if id != 0 || tr.snapshot() != nil {
		t.Fatal("a nil tracer must record nothing")
	}
}
