package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"bsisa/internal/backend"
	"bsisa/internal/harness"
	"bsisa/internal/isa"
	"bsisa/internal/stats"
	"bsisa/internal/svc"
	"bsisa/internal/workload"
)

// paperExperiments is `bsbench -exp paper`, in its order.
var paperExperiments = []struct {
	name string
	run  func(h *harness.Harness) (*stats.Table, error)
}{
	{"table1", func(*harness.Harness) (*stats.Table, error) { return harness.Table1(), nil }},
	{"table2", (*harness.Harness).Table2},
	{"fig3", (*harness.Harness).Figure3},
	{"fig4", (*harness.Harness).Figure4},
	{"fig5", (*harness.Harness).Figure5},
	{"fig6", (*harness.Harness).Figure6},
	{"fig7", (*harness.Harness).Figure7},
	{"headtohead", (*harness.Harness).HeadToHead},
}

// runPaper is the closed batch a bsbench user waits for: harness.New, then
// every paper experiment, repeated on a fresh harness until --seconds of
// batches have run. Every batch's output is compared with the golden file.
func runPaper(rc *runCtx) (*outcome, error) {
	p := rc.p
	var golden string
	if p.goldenFile != "" {
		data, err := os.ReadFile(filepath.Join(rc.root, p.goldenFile))
		if err != nil {
			return nil, err
		}
		golden = string(data)
	}
	opts := harness.Options{Scale: p.paperScale}
	newHarness := func() (*harness.Harness, float64, error) {
		runtime.GC()
		sp := rc.tr.start(rc.rootSpan, "harness", "harness.new", 0)
		t0 := time.Now()
		h, err := harness.New(opts)
		d := time.Since(t0).Seconds()
		rc.tr.end(sp)
		return h, d, err
	}

	// Each harness is dropped before the next is built, so the collection
	// newHarness starts with can reclaim it.
	var setups []float64
	var h *harness.Harness
	for k := 0; k < p.setups; k++ {
		h = nil
		var d float64
		var err error
		if h, d, err = newHarness(); err != nil {
			return nil, err
		}
		setups = append(setups, d)
	}

	out := &outcome{notes: map[string]any{}}
	var walls, allocs []float64
	expMs := make([][]float64, len(paperExperiments)) // per experiment, per batch
	var timed time.Duration
	for b := 0; ; b++ {
		if b > 0 {
			h = nil
			var d float64
			var err error
			if h, d, err = newHarness(); err != nil {
				return nil, err
			}
			setups = append(setups, d)
		}
		runtime.GC()
		a0 := totalAlloc()
		t0 := time.Now()
		var rendered []string
		for i, e := range paperExperiments {
			sp := rc.tr.start(rc.rootSpan, "harness", "harness."+e.name, 0)
			e0 := time.Now()
			tbl, err := e.run(h)
			expMs[i] = append(expMs[i], ms(time.Since(e0)))
			rc.tr.end(sp)
			out.attempted++
			if err != nil {
				out.failed++
				out.notes["first_failure"] = fmt.Sprintf("%s: %v", e.name, err)
				rendered = append(rendered, "")
				continue
			}
			rendered = append(rendered, tbl.Render()+"\n")
		}
		wall := time.Since(t0)
		walls = append(walls, wall.Seconds())
		allocs = append(allocs, float64(totalAlloc()-a0)/(1<<20))
		timed += wall
		if golden != "" {
			if bad, first := checkGolden(rendered, golden); bad > 0 {
				out.failed += bad
				out.notes["first_failure"] = first
			}
		}
		if timed >= time.Duration(rc.seconds)*time.Second {
			break
		}
	}
	rss := peakRSSMB()
	h = nil // the probe below records its own traces

	// An experiment is paper's request: each one's time is its median over
	// the batches. With eight of them no percentile has ten samples beyond
	// it, so the tail is the slowest experiment.
	var perExp []float64
	slowest := 0
	for i, xs := range expMs {
		perExp = append(perExp, median(xs))
		if perExp[i] > perExp[slowest] {
			slowest = i
		}
	}
	wall := median(walls)
	out.e2e = map[string]float64{
		"setup_s":         median(setups),
		"wall_s":          wall,
		"throughput_rps":  float64(len(paperExperiments)) / wall,
		"latency_p50_ms":  median(perExp),
		"latency_tail_ms": perExp[slowest],
		"heap_alloc_mb":   median(allocs),
	}
	out.layer = map[string]float64{"process.peak_rss_mb": rss}
	out.notes["latency_tail"] = map[string]any{"experiment": paperExperiments[slowest].name, "batches": len(walls)}
	out.notes["setups_s"] = setups
	out.notes["batches_s"] = walls

	if rc.tr != nil {
		runtime.GC()
		if err := paperProbe(rc); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// checkGolden compares the batch's tables, concatenated as bsbench prints
// them, with the head of the golden file, and counts the tables that are
// not byte-identical at their position.
func checkGolden(rendered []string, golden string) (failed int, first string) {
	off := 0
	for i, t := range rendered {
		end := off + len(t)
		if t == "" || end > len(golden) || golden[off:end] != t {
			failed++
			if first == "" {
				first = fmt.Sprintf("table %d (%s) differs from the golden file at byte %d",
					i, paperExperiments[i].name, off)
			}
		}
		off = end
	}
	return failed, first
}

// paperProbe repeats the batch's library work layer by layer from outside,
// on the same inputs (the fixed Table-2 profiles): per profile, generate
// the source; per backend, parse, check, compile, shape and record; then
// the timing engines the figures route to — Sim replay and segmented
// replay for the Figure 3/4 and head-to-head single configs, predecode plus
// the sweep lanes for the Figure 6/7 icache grids.
func paperProbe(rc *runCtx) error {
	l := &lib{tr: rc.tr, parent: rc.rootSpan, workers: runtime.GOMAXPROCS(0)}
	fig := func(icache int, perfect bool) *svc.ConfigSpec {
		return &svc.ConfigSpec{ICache: &svc.CacheSpec{SizeBytes: icache, Ways: 4}, PerfectBP: perfect}
	}
	icGrid := append([]int{0}, harness.ICacheSizes...)
	d := 0
	for i, prof := range workload.Profiles(rc.p.paperScale) {
		src, err := workload.Source(prof)
		if err != nil {
			return err
		}
		for _, be := range backend.All() {
			pr := program{ID: i, Profile: prof, ISA: be.Name(), Source: src}
			lp, err := l.build(pr, true)
			if err != nil {
				return err
			}
			reqs := []svc.SimRequest{{Config: fig(harness.LargeICache, false)}}
			if k := be.Kind(); k == isa.Conventional || k == isa.BlockStructured {
				reqs = append(reqs,
					svc.SimRequest{Config: fig(harness.LargeICache, true)},
					svc.SimRequest{Sweep: &svc.SweepSpec{ICacheSizes: icGrid, Base: &svc.ConfigSpec{ICache: &svc.CacheSpec{Ways: 4}}}})
			}
			for _, req := range reqs {
				req.Version = svc.SchemaVersion
				req.Program = svc.ProgramSpec{Source: src, ISA: be.Name()}
				if _, err := l.expect(d, req, lp, true); err != nil {
					return err
				}
				d++
			}
		}
	}
	return nil
}

// paperLayerMetrics are the harness experiment spans' durations (the
// probe's spans give the library layers).
func paperLayerMetrics(spans []span) map[string]float64 {
	m := map[string]float64{}
	n := map[string]float64{}
	for _, s := range spans {
		if s.Layer != "harness" {
			continue
		}
		key := strings.TrimPrefix(s.Name, "harness.") + "_s"
		m["harness."+key] += float64(s.End-s.Start) / 1e9
		n["harness."+key]++
	}
	for k := range m {
		m[k] /= n[k] // mean over batches (and over set-ups for harness.new_s)
	}
	return m
}
