package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// TestMain lets the test binary serve as the load-generator process that
// serve-* runs spawn by re-executing themselves.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-loadgen" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// tinyParams shrinks every workload so a run takes about a second.
func tinyParams() params {
	return params{
		setups: 2, coldSetups: 2,
		paperScale: 0.02, // the golden file is recorded at scale 1: not compared here
		hotScale:   0.01, hotRate: 40, hotCapacity: 30, hotOpenShare: 0.5,
		coldScale: 0.01, coldCapacity: 8,
		clients: 2, lateLimitMs: 1000,
	}
}

func smoke(t *testing.T, workload string, traced bool, p params) (*result, string, error) {
	t.Helper()
	rc := &runCtx{p: p, workload: workload, seed: 3, seconds: 1, root: ".."}
	var out bytes.Buffer
	trace := 0
	if traced {
		trace = 1
	}
	res, err := execute(rc, trace, t.TempDir(), &out)
	return res, out.String(), err
}

// TestSmokeEachWorkload runs every workload untraced and traced at tiny
// scale, then checks the layer map the README states: the serve-hot timed
// phase compiles and records nothing, serve-cold compiles and writes the
// store on every request, and paper never touches svc.
func TestSmokeEachWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload at tiny scale")
	}
	layer := map[string]map[string]float64{}
	for _, wl := range []string{"paper", "serve-hot", "serve-cold"} {
		for _, traced := range []bool{false, true} {
			res, text, err := smoke(t, wl, traced, tinyParams())
			if err != nil {
				t.Fatalf("%s traced=%v: %v", wl, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s traced=%v: %+v\n%s", wl, traced, res, text)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
				layer[wl] = map[string]float64{}
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", wl, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("%s traced=%v: metric %s missing or unit %q", wl, traced, d.Name, m.Unit)
				}
				if traced {
					layer[wl][d.Name] = m.Value
				} else if m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %g, want > 0", wl, d.Name, m.Value)
				}
			}
			if !strings.Contains(text, `"gomaxprocs"`) || !strings.Contains(text, `"seed":3`) {
				t.Errorf("%s: output carries no host/run stamp:\n%s", wl, text)
			}
		}
	}

	hot, cold, paper := layer["serve-hot"], layer["serve-cold"], layer["paper"]
	for _, k := range []string{"compile.build_ms", "core.enlarge_ms", "emu.record_ms", "svc.store.save_ms"} {
		if hot[k] != 0 || cold[k] <= 0 {
			t.Errorf("%s: serve-hot %g (want 0), serve-cold %g (want > 0)", k, hot[k], cold[k])
		}
	}
	if hot["svc.store.mmap_per_req"] <= 0 || hot["svc.hit_ratio.program"] != 1 {
		t.Errorf("serve-hot should map stored traces and hit the program cache: %v", hot)
	}
	for _, k := range []string{"svc.overhead_ms", "svc.store.save_ms", "svc.store.map_ms", "loadgen.sent"} {
		if paper[k] != 0 {
			t.Errorf("paper bypasses svc, but %s = %g", k, paper[k])
		}
	}
	if paper["harness.fig6_s"] <= 0 || paper["uarch.sweep_ms"] <= 0 || cold["harness.fig6_s"] != 0 {
		t.Errorf("harness and sweep work belong to paper: paper fig6 %g sweep %g, cold fig6 %g",
			paper["harness.fig6_s"], paper["uarch.sweep_ms"], cold["harness.fig6_s"])
	}
}

func TestLateGeneratorVoidsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs serve-hot at tiny scale")
	}
	p := tinyParams()
	p.lateLimitMs = -1 // any lateness at all is too late
	if _, _, err := smoke(t, "serve-hot", false, p); err == nil || !strings.Contains(err.Error(), "not scored") {
		t.Fatalf("a run whose generator fell behind must not be scored, got %v", err)
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "paper", "--trace", "2"},
		{"--workload", "paper", "--seconds", "0"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code == 0 || out.Len() != 0 {
			t.Errorf("run(%v) = %d with output %q, want a non-zero exit and no result", args, code, out.String())
		}
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json and the metrics
// this program prints in step.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", what, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], program %s [%s]", what, i, got[i].Name, got[i].Unit, want[i].Name, want[i].Unit)
			}
		}
	}
	same("end_to_end", bj.EndToEnd, endToEnd)
	same("per_layer", bj.PerLayer, perLayer)
	for _, w := range bj.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not a workload of the program", w.Name)
		}
	}
	if len(bj.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program %d", len(bj.Workloads), len(workloads))
	}
}
