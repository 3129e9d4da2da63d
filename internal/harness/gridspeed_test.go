package harness

import (
	"strconv"
	"testing"
)

// TestGridSpeedPresets runs every grid-speed preset on a small harness: each
// must verify engine equivalence on every benchmark/ISA row (GridSpeed fails
// otherwise), report its grid size, and an unknown preset must be refused.
func TestGridSpeedPresets(t *testing.T) {
	h := getAblationHarness(t)
	for _, p := range GridPresets() {
		tbl, err := h.GridSpeed(p.Name)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if want := 2*len(h.Benches) + 1; len(tbl.Rows) != want {
			t.Fatalf("%s: %d rows, want %d", p.Name, len(tbl.Rows), want)
		}
		if got, want := tbl.Rows[0][2], strconv.Itoa(len(p.Grid())); got != want {
			t.Fatalf("%s: configs column %s, want %s", p.Name, got, want)
		}
	}
	if _, err := h.GridSpeed("tracestore"); err == nil {
		t.Fatal("unknown preset accepted")
	}
}

// TestMmapReplaySpeed runs the store-load experiment on a small harness:
// every row's mapped trace must re-encode and replay identically to a fresh
// recording (MmapReplaySpeed fails otherwise).
func TestMmapReplaySpeed(t *testing.T) {
	h := getAblationHarness(t)
	tbl, err := h.MmapReplaySpeed()
	if err != nil {
		t.Fatal(err)
	}
	if want := 2*len(h.Benches) + 1; len(tbl.Rows) != want {
		t.Fatalf("%d rows, want %d", len(tbl.Rows), want)
	}
}
