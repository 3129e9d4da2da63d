package main

import (
	"reflect"
	"testing"

	"bsisa/internal/backend"
	"bsisa/internal/uarch"
)

func TestHotInputsSameSeedSameSequence(t *testing.T) {
	a, err := hotInputs(7, 0.01, 30, 40, 40, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := hotInputs(7, 0.01, 30, 40, 40, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		x, y any
	}{{"open", a.open, b.open}, {"closed", a.closed, b.closed}, {"warm", a.warm, b.warm}, {"distinct", a.distinct, b.distinct}} {
		if !reflect.DeepEqual(c.x, c.y) {
			t.Errorf("%s requests differ between two generations from one seed", c.name)
		}
	}
}

func TestDifferentSeedDifferentPrograms(t *testing.T) {
	a, err := hotInputs(1, 0.01, 30, 10, 10, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := hotInputs(2, 0.01, 30, 10, 10, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.programs) != 32 || len(b.programs) != 32 {
		t.Fatalf("hot set has %d and %d programs, want 8 profiles x 4 backends", len(a.programs), len(b.programs))
	}
	for i := range a.programs {
		if a.programs[i].Source == b.programs[i].Source {
			t.Errorf("program %d (%s) is the same under seeds 1 and 2", i, a.programs[i].Profile.Name)
		}
	}
	ca, err := coldInputs(1, 0.01, 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(ca.closed) != 40 {
		t.Fatalf("cold run of 16 requests has %d, want one whole rotation of 40", len(ca.closed))
	}
	perProfile := map[string]int{}
	for _, p := range ca.programs {
		perProfile[p.Profile.Name]++
	}
	if perProfile["perl"] != 8 || perProfile["gcc"] != 4 {
		t.Errorf("cold rotation per profile: %v, want perl and vortex twice as often as the others", perProfile)
	}
	cb, err := coldInputs(2, 0.01, 16)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for i := range ca.programs {
		if ca.programs[i].Source == cb.programs[i].Source {
			t.Errorf("cold program %d is the same under seeds 1 and 2", i)
		}
		if seen[ca.programs[i].Source] {
			t.Errorf("cold program %d repeats an earlier program", i)
		}
		seen[ca.programs[i].Source] = true
	}
}

func TestHotScheduleShape(t *testing.T) {
	in, err := hotInputs(3, 0.01, 30, 100, 100, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(in.open) != 100 || len(in.closed) != 100 {
		t.Fatalf("got %d open, %d closed", len(in.open), len(in.closed))
	}
	kinds := map[string]int{}
	for i, it := range in.open {
		kinds[it.Kind]++
		if i > 0 && it.Due < in.open[i-1].Due {
			t.Fatalf("open-loop schedule goes back in time at %d", i)
		}
		if it.Kind == kindBurst && i > 0 && in.open[i-1].Kind == kindBurst && in.open[i-1].Distinct == it.Distinct && in.open[i-1].Due != it.Due {
			t.Fatalf("burst members %d and %d are due at different times", i-1, i)
		}
	}
	if kinds[kindGrid] == 0 || kinds[kindBurst] == 0 || kinds[kindSingle] < 6*kinds[kindGrid] {
		t.Errorf("open-loop mix %v: want mostly singles, some grids and bursts of 2", kinds)
	}
	for _, it := range in.open {
		if be, _ := backend.Get(in.programs[it.Prog].ISA); it.Kind == kindGrid && !uarch.CanSweepKind(be.Kind()) {
			t.Fatalf("open-loop grid on %s: open-loop grids must run the sweep lanes", be.Name())
		}
	}
	kinds = map[string]int{}
	for _, it := range in.closed {
		kinds[it.Kind]++
	}
	if kinds[kindBurst] != 0 || kinds[kindGrid] != 30 || kinds[kindSingle] != 70 {
		t.Errorf("closed-loop mix %v: want 70 singles and 30 grids per 100", kinds)
	}
}
