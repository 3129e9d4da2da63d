package main

import (
	"net/http"
	"strings"
	"testing"

	"bsisa/internal/svc"
)

// TestCorruptedExpectedValueIsCaught checks the correctness gate itself:
// real library answers accepted as-is, and one corrupted expected field
// counted as a failure that names the field.
func TestCorruptedExpectedValueIsCaught(t *testing.T) {
	in, err := coldInputs(5, 0.01, 1)
	if err != nil {
		t.Fatal(err)
	}
	l := &lib{workers: 2}
	in.open, in.closed = nil, in.closed[:10] // one program per profile slot is enough
	want, err := l.expectAll(in, 2)
	if err != nil {
		t.Fatal(err)
	}
	ss := make([]sample, len(in.closed))
	for i, it := range in.closed {
		res := append([]svc.SimResult(nil), want[it.Distinct]...)
		ss[i] = sample{Code: http.StatusOK, Resp: &svc.SimResponse{Results: res}}
	}
	if failed, first := checkSamples(in.closed, ss, want); failed != 0 {
		t.Fatalf("matching answers rejected: %v", first)
	}

	bad := make([][]svc.SimResult, len(want))
	for d := range want {
		bad[d] = append([]svc.SimResult(nil), want[d]...)
	}
	bad[in.closed[9].Distinct][0].Cycles++
	failed, first := checkSamples(in.closed, ss, bad)
	if failed != 1 || first == nil || !strings.Contains(first.Error(), "Cycles") {
		t.Fatalf("corrupted expected Cycles: failed=%d err=%v, want one failure naming Cycles", failed, first)
	}

	ss[0].Code = http.StatusServiceUnavailable
	if failed, _ := checkSamples(in.closed, ss, want); failed != 1 {
		t.Fatalf("a non-2xx response must count as failed, got %d failures", failed)
	}
}

func TestCorruptedGoldenTableIsCaught(t *testing.T) {
	tables := make([]string, len(paperExperiments))
	for i := range tables {
		tables[i] = "table " + paperExperiments[i].name + "\n"
	}
	golden := strings.Join(tables, "") + "trailing notes\n"
	if failed, first := checkGolden(tables, golden); failed != 0 {
		t.Fatalf("identical tables rejected: %s", first)
	}
	corrupt := strings.Replace(golden, "table fig4", "table fig4!", 1)
	failed, first := checkGolden(tables, corrupt)
	if failed == 0 || !strings.Contains(first, "fig4") {
		t.Fatalf("corrupted fig4 not caught: failed=%d first=%q", failed, first)
	}
	if failed, _ := checkGolden(tables, golden[:len(golden)/2]); failed == 0 {
		t.Fatal("a truncated golden file must fail")
	}
}
