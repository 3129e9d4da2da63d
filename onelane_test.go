// Root-level property test for single-configuration routing: the harness
// and the service run a lone configuration as a grid-of-one uarch.Sweep, so
// that one-lane sweep must be field-for-field identical to sequential
// replay, segment-parallel replay and execution-driven simulation, for every
// workload on both sweepable ISAs.
package main

import (
	"testing"

	"bsisa/internal/backend"
	"bsisa/internal/cache"
	"bsisa/internal/compile"
	"bsisa/internal/core"
	"bsisa/internal/emu"
	"bsisa/internal/uarch"
	"bsisa/internal/workload"
)

func TestOneLaneSweepMatchesEveryEngine(t *testing.T) {
	for _, prof := range workload.Profiles(0.02) {
		src, err := workload.Source(prof)
		if err != nil {
			t.Fatal(err)
		}
		for _, beName := range []string{"conv", "bsa"} {
			be, err := backend.Get(beName)
			if err != nil {
				t.Fatal(err)
			}
			prog, err := compile.Compile(src, prof.Name, compile.DefaultOptions(be.Kind()))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := be.Shape(prog, core.Params{}); err != nil {
				t.Fatal(err)
			}
			emuCfg := emu.Config{}
			tr, err := emu.Record(prog, emuCfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, perfectBP := range []bool{false, true} {
				cfg := uarch.Config{ICache: cache.Config{SizeBytes: 8192, Ways: 4}, PerfectBP: perfectBP}
				label := prof.Name + "/" + beName
				if perfectBP {
					label += "/perfect-bp"
				}
				lane, err := uarch.Sweep(tr, []uarch.Config{cfg}, 1)
				if err != nil {
					t.Fatalf("%s: sweep: %v", label, err)
				}
				replay, err := uarch.ReplayTrace(tr, cfg)
				if err != nil {
					t.Fatalf("%s: replay: %v", label, err)
				}
				seg, err := uarch.ReplayTraceSegmented(tr, cfg, uarch.SegmentOptions{Workers: 2, Segments: 4})
				if err != nil {
					t.Fatalf("%s: segmented: %v", label, err)
				}
				direct, _, err := uarch.RunProgram(prog, cfg, emuCfg)
				if err != nil {
					t.Fatalf("%s: direct: %v", label, err)
				}
				for _, other := range []struct {
					name string
					res  *uarch.Result
				}{{"ReplayTrace", replay}, {"ReplayTraceSegmented", seg}, {"RunProgram", direct}} {
					if *lane[0] != *other.res {
						t.Errorf("%s: one-lane sweep differs from %s\nsweep: %+v\n%s: %+v",
							label, other.name, *lane[0], other.name, *other.res)
					}
				}
			}
		}
	}
}
