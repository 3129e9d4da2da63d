package harness

import (
	"fmt"
	"time"

	"bsisa/internal/bpred"
	"bsisa/internal/isa"
	"bsisa/internal/stats"
	"bsisa/internal/uarch"
)

// GridPreset is one named configuration grid the GridSpeed experiment
// times. Name is the bsbench experiment that selects it.
type GridPreset struct {
	Name  string
	Title string
	Note  string
	Grid  func() []uarch.Config
}

// GridPresets returns the grid-speed presets in bsbench order:
//
//   - sweepspeed: a dense icache sensitivity sweep — a perfect icache plus
//     every power-of-two size from three octaves below the Figure 6/7 grid
//     up to an octave above it. Dense grids are the sweep engine's designed
//     workload: the stack-distance profiler prices every extra power-of-two
//     size at one cheap timing lane.
//   - predsweep: an 8-point branch-history sweep at the Figure 3 machine.
//   - xsweep: the 4x4 history-bits x icache-size cross product, where one
//     enrichment replay feeds lanes that differ along two axes.
//   - onelane: the Figure 3 machine alone. SimulateMany of one config is one
//     sequential ReplayTrace, so this times sequential replay against the
//     one-lane sweep every lone configuration is routed through.
func GridPresets() []GridPreset {
	return []GridPreset{
		{
			Name:  "sweepspeed",
			Title: "Sweep speed: per-config replay (legacy) vs fused single-pass sweep",
			Note:  "Dense grid (perfect + power-of-two sizes around Figure 6/7); engines verified to return identical results.",
			Grid:  denseICacheGrid,
		},
		{
			Name:  "predsweep",
			Title: "Predictor sweep speed: per-config replay (legacy) vs fused single-pass sweep",
			Note:  "8-point history-length grid at the Figure 3 machine; engines verified to return identical results.",
			Grid:  historyGrid,
		},
		{
			Name:  "xsweep",
			Title: "Cross sweep speed: per-config replay (legacy) vs unified multi-axis sweep",
			Note:  "4x4 history-bits x icache-size cross grid at the Figure 3 machine; engines verified to return identical results.",
			Grid:  crossGrid,
		},
		{
			Name:  "onelane",
			Title: "Single-config speed: sequential replay vs one-lane sweep",
			Note:  "The Figure 3 machine alone; engines verified to return identical results.",
			Grid:  func() []uarch.Config { return []uarch.Config{baseConfig(LargeICache, false)} },
		},
	}
}

func denseICacheGrid() []uarch.Config {
	minSize, maxSize := ICacheSizes[0], ICacheSizes[0]
	for _, sz := range ICacheSizes[1:] {
		minSize, maxSize = min(minSize, sz), max(maxSize, sz)
	}
	cfgs := []uarch.Config{baseConfig(0, false)}
	for sz := minSize / 8; sz <= maxSize*2; sz *= 2 {
		cfgs = append(cfgs, baseConfig(sz, false))
	}
	return cfgs
}

func historyGrid() []uarch.Config {
	var cfgs []uarch.Config
	for _, hb := range []int{1, 2, 4, 6, 8, 10, 12, 16} {
		cfg := baseConfig(LargeICache, false)
		cfg.Predictor.HistoryBits = hb
		cfgs = append(cfgs, cfg)
	}
	return cfgs
}

func crossGrid() []uarch.Config {
	var cfgs []uarch.Config
	for _, hb := range []int{4, 8, 12, 16} {
		for sz := 4 * 1024; sz <= 32*1024; sz *= 2 {
			cfg := baseConfig(sz, false)
			cfg.Predictor.HistoryBits = hb
			cfgs = append(cfgs, cfg)
		}
	}
	return cfgs
}

// GridSpeed times the named preset's grid both ways — one independent
// replay per configuration (uarch.SimulateMany) versus the unified
// multi-axis sweep engine (uarch.Sweep) — over every benchmark and both
// ISAs, verifying on the way that the two engines return identical results.
// It deliberately ignores the result memo: every cell is real simulation
// work, so the table is the perf trajectory record for the sweep path
// (bsbench -json exports it as BENCH_<name>.json).
func (h *Harness) GridSpeed(name string) (*stats.Table, error) {
	var preset *GridPreset
	for _, p := range GridPresets() {
		if p.Name == name {
			preset = &p
			break
		}
	}
	if preset == nil {
		return nil, fmt.Errorf("harness: no grid-speed preset %q", name)
	}
	t := &stats.Table{
		Title:   preset.Title,
		Columns: []string{"Benchmark", "ISA", "Configs", "Legacy (ms)", "Fused (ms)", "Speedup"},
		Note:    preset.Note,
	}
	cfgs := preset.Grid()
	var legacyTotal, fusedTotal time.Duration
	for _, b := range h.Benches {
		for _, side := range []struct {
			tag  string
			prog *isa.Program
		}{{"conv", b.Conv}, {"bsa", b.BSA}} {
			tr, traced, err := h.Trace(side.prog)
			if err != nil {
				return nil, err
			}
			if !traced {
				return nil, fmt.Errorf("harness: %s: %s/%s has no trace slot", name, b.Profile.Name, side.tag)
			}
			h.Opts.progress("%s %-8s %s", name, b.Profile.Name, side.tag)
			start := time.Now()
			legacy, err := uarch.SimulateMany(tr, cfgs, h.Opts.workers())
			if err != nil {
				return nil, err
			}
			legacyMs := time.Since(start)
			start = time.Now()
			fused, err := uarch.Sweep(tr, cfgs, h.Opts.workers())
			if err != nil {
				return nil, err
			}
			fusedMs := time.Since(start)
			for i := range legacy {
				if *legacy[i] != *fused[i] {
					return nil, fmt.Errorf("harness: %s: %s/%s config %d: fused result diverges:\nlegacy %+v\nfused  %+v",
						name, b.Profile.Name, side.tag, i, *legacy[i], *fused[i])
				}
			}
			legacyTotal += legacyMs
			fusedTotal += fusedMs
			t.AddRow(b.Profile.Name, side.tag, len(cfgs),
				legacyMs.Milliseconds(), fusedMs.Milliseconds(),
				fmt.Sprintf("%.2fx", float64(legacyMs)/float64(fusedMs)))
		}
	}
	t.AddRow("TOTAL", "", len(cfgs), legacyTotal.Milliseconds(), fusedTotal.Milliseconds(),
		fmt.Sprintf("%.2fx", float64(legacyTotal)/float64(fusedTotal)))
	return t, nil
}

// The init-time assertion that the harness's sweep grids satisfy the
// unified engine's gate — a grid drifting out of CanSweep would silently
// fall back to per-config replay.
var _ = func() bool {
	for _, p := range GridPresets() {
		if ok, reason := uarch.CanSweep(p.Grid()); !ok {
			panic("harness: grid preset " + p.Name + " is not sweepable: " + reason)
		}
	}
	// The A4 grid: baseConfig differing only in HistoryBits.
	var a4 []uarch.Config
	for _, hb := range []int{2, 16} {
		cfg := baseConfig(LargeICache, false)
		cfg.Predictor = bpred.Config{HistoryBits: hb}
		a4 = append(a4, cfg)
	}
	if ok, reason := uarch.CanSweep(a4); !ok {
		panic("harness: AblateHistory grid is not sweepable: " + reason)
	}
	return true
}()
