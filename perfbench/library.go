package main

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"

	"bsisa/internal/backend"
	"bsisa/internal/compile"
	"bsisa/internal/core"
	"bsisa/internal/emu"
	"bsisa/internal/isa"
	"bsisa/internal/lang"
	"bsisa/internal/svc"
	"bsisa/internal/uarch"
	"bsisa/internal/workload"
)

// Span names of the library calls the benchmark times from outside. The
// prefix before the first dot is the layer (the repository module).
const (
	spSource    = "workload.source"
	spParse     = "lang.parse"
	spCheck     = "lang.check"
	spBuild     = "compile.build"
	spShape     = "core.enlarge"
	spRecord    = "emu.record"
	spSave      = "svc.store.save"
	spMap       = "svc.store.map"
	spReplay    = "uarch.replay"
	spSegmented = "uarch.segmented"
	spPredecode = "uarch.predecode"
	spSweep     = "uarch.sweep"
	spMany      = "uarch.simulate_many"
	spRefMany   = "check.simulate_many" // reference grid for a swept program
)

func layerOf(name string) string {
	for i := 0; i < len(name); i++ {
		if name[i] == '.' {
			return name[:i]
		}
	}
	return name
}

// lib runs the library path — the same layers bsimd and the harness call,
// invoked directly — with one span per call when traced. It is the
// reference every serve-* response is checked against, and, traced, the
// source of the per-layer timings.
type lib struct {
	tr      *tracer
	parent  int
	workers int        // engine worker budget for segmented/sweep/simulate-many
	store   *svc.Store // non-nil: time store save and map on each trace
}

// call runs fn inside a span named name, recording the work units fn
// returns and the bytes allocated meanwhile. Untraced, it just runs fn.
func (l *lib) call(name string, req int, fn func() (float64, error)) error {
	if l.tr == nil {
		_, err := fn()
		return err
	}
	a0 := totalAlloc()
	id := l.tr.start(l.parent, layerOf(name), name, int64(req))
	work, err := fn()
	l.tr.end(id)
	l.tr.setWork(id, work, totalAlloc()-a0)
	return err
}

// libProgram is one program built and recorded by the library path.
type libProgram struct {
	id   int
	kind isa.Kind
	prog *isa.Program
	tr   *emu.Trace
	pre  *uarch.Predecoded
}

// build compiles, shapes and records p exactly as svc does for a source
// request (same unit name, default options, default emulation budget).
// With regenerate set the source is generated again inside a span, so the
// generator's cost is measured on the same profile.
func (l *lib) build(p program, regenerate bool) (*libProgram, error) {
	be, err := backend.Get(p.ISA)
	if err != nil {
		return nil, err
	}
	src := p.Source
	if regenerate {
		err := l.call(spSource, p.ID, func() (float64, error) {
			s, err := workload.Source(p.Profile)
			src = s
			return 0, err
		})
		if err != nil {
			return nil, err
		}
		if src != p.Source {
			return nil, fmt.Errorf("program %d: regenerated source differs", p.ID)
		}
	}
	var file *lang.File
	var info *lang.Info
	out := &libProgram{id: p.ID, kind: be.Kind()}
	steps := []struct {
		name string
		fn   func() (float64, error)
	}{
		{spParse, func() (float64, error) { file, err = lang.Parse(src); return 0, err }},
		{spCheck, func() (float64, error) { info, err = lang.Check(file); return 0, err }},
		{spBuild, func() (float64, error) {
			mod, err := compile.Lower(file, info, "request")
			if err != nil {
				return 0, err
			}
			out.prog, err = compile.CompileModule(mod, compile.DefaultOptions(be.Kind()))
			return 0, err
		}},
		{spShape, func() (float64, error) { _, err := be.Shape(out.prog, core.Params{}); return 0, err }},
		{spRecord, func() (float64, error) {
			out.tr, err = emu.Record(out.prog, emu.Config{})
			if err != nil {
				return 0, err
			}
			return float64(out.tr.NumEvents()), nil
		}},
	}
	for _, s := range steps {
		if err := l.call(s.name, p.ID, s.fn); err != nil {
			return nil, fmt.Errorf("program %d (%s/%s): %s: %w", p.ID, p.Profile.Name, p.ISA, s.name, err)
		}
	}
	if l.store != nil {
		if err := l.storeRoundTrip(p.ID, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// storeRoundTrip times one write-through save and one mapped load of the
// program's trace on the benchmark's own store.
func (l *lib) storeRoundTrip(id int, lp *libProgram) error {
	key := fmt.Sprintf("perfbench-%d", id)
	err := l.call(spSave, id, func() (float64, error) { return 0, l.store.SaveTrace(key, lp.tr, nil) })
	if err != nil {
		return fmt.Errorf("program %d: store save: %w", id, err)
	}
	return l.call(spMap, id, func() (float64, error) {
		mt, ok := l.store.LoadTraceMapped(key, lp.prog, emu.Config{})
		if !ok {
			return 0, fmt.Errorf("program %d: stored trace did not map", id)
		}
		mt.Release()
		return 0, nil
	})
}

// expect computes the reference answer to req on lp: the sequential Sim
// replay for a single config, per-config replay (uarch.SimulateMany) for a
// grid. With routed set it also runs the engine bsimd routes the request to
// (segmented replay, or predecode plus the sweep lanes) and requires the
// same answer.
func (l *lib) expect(d int, req svc.SimRequest, lp *libProgram, routed bool) ([]svc.SimResult, error) {
	plan, err := svc.BuildConfig(&req)
	if err != nil {
		return nil, err
	}
	events := float64(lp.tr.NumEvents())
	lanes := events * float64(len(plan.Configs))
	var ref []*uarch.Result
	sweepable, _ := uarch.CanSweep(plan.Configs)
	sweepable = sweepable && uarch.CanSweepKind(lp.kind)
	single := len(plan.Configs) == 1
	switch {
	case single:
		err = l.call(spReplay, d, func() (float64, error) {
			r, err := uarch.ReplayTrace(lp.tr, plan.Configs[0])
			ref = []*uarch.Result{r}
			return events, err
		})
	case sweepable:
		err = l.call(spRefMany, d, func() (float64, error) {
			ref, err = uarch.SimulateMany(lp.tr, plan.Configs, l.workers)
			return lanes, err
		})
	default:
		err = l.call(spMany, d, func() (float64, error) {
			ref, err = uarch.SimulateMany(lp.tr, plan.Configs, l.workers)
			return lanes, err
		})
	}
	if err != nil {
		return nil, fmt.Errorf("request %d: reference: %w", d, err)
	}
	if routed && (single || sweepable) {
		var got []*uarch.Result
		if single {
			err = l.call(spSegmented, d, func() (float64, error) {
				r, err := uarch.ReplayTraceSegmented(lp.tr, plan.Configs[0], uarch.SegmentOptions{Workers: l.workers})
				got = []*uarch.Result{r}
				return events, err
			})
		} else {
			if lp.pre == nil {
				iw := plan.Configs[0].EffectiveIssueWidth()
				_ = l.call(spPredecode, lp.id, func() (float64, error) { lp.pre = uarch.Predecode(lp.prog, iw); return 0, nil })
			}
			err = l.call(spSweep, d, func() (float64, error) {
				got, err = uarch.SweepPredecoded(context.Background(), lp.tr, plan.Configs, l.workers, lp.pre)
				return lanes, err
			})
		}
		if err != nil {
			return nil, fmt.Errorf("request %d: routed engine: %w", d, err)
		}
		for i := range ref {
			if !reflect.DeepEqual(*got[i], *ref[i]) {
				return nil, fmt.Errorf("request %d config %d: routed engine disagrees with the reference replay", d, i)
			}
		}
	}
	out := make([]svc.SimResult, len(ref))
	for i, r := range ref {
		out[i] = svc.ResultOf(plan.ICacheBytes[i], r)
		if plan.Predictors != nil {
			out[i].Predictor = plan.Predictors[i]
		}
	}
	return out, nil
}

// expectAll computes the reference answer to every distinct request of in,
// building each program once. Untraced, programs are processed by `par`
// goroutines; traced, serially so each span's time is its own.
func (l *lib) expectAll(in *serveInputs, par int) ([][]svc.SimResult, error) {
	byProg := make([][]int, len(in.programs))
	for _, it := range append(append(append([]item(nil), in.warm...), in.open...), in.closed...) {
		if !contains(byProg[it.Prog], it.Distinct) {
			byProg[it.Prog] = append(byProg[it.Prog], it.Distinct)
		}
	}
	want := make([][]svc.SimResult, len(in.distinct))
	traced := l.tr != nil
	if traced {
		par = 1
	}
	work := make(chan int)
	errs := make([]error, len(in.programs))
	var wg sync.WaitGroup
	for w := 0; w < par; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for p := range work {
				if len(byProg[p]) == 0 {
					continue
				}
				lp, err := l.build(in.programs[p], traced)
				if err != nil {
					errs[p] = err
					continue
				}
				for _, d := range byProg[p] {
					if want[d], err = l.expect(d, in.distinct[d], lp, traced); err != nil {
						errs[p] = err
						break
					}
				}
			}
		}()
	}
	for p := range in.programs {
		work <- p
	}
	close(work)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return want, nil
}

func contains(xs []int, x int) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}

// checkSamples compares every response with the reference answer to its
// request, field for field, and returns how many failed (non-2xx,
// transport error, error envelope, or a result that differs) with the
// first failure's description.
func checkSamples(items []item, ss []sample, want [][]svc.SimResult) (failed int, first error) {
	for i := range ss {
		var err error
		switch {
		case ss[i].Err != "":
			err = errors.New(ss[i].Err)
		case !ss[i].ok():
			err = fmt.Errorf("HTTP %d", ss[i].Code)
		}
		if err == nil {
			err = sameResults(ss[i].Resp.Results, want[items[i].Distinct])
		}
		if err != nil {
			failed++
			if first == nil {
				first = fmt.Errorf("request %d (%s, program %d): %w", i, items[i].Kind, items[i].Prog, err)
			}
		}
	}
	return failed, first
}

// sameResults reports the first field that differs between two result
// lists.
func sameResults(got, want []svc.SimResult) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d results, want %d", len(got), len(want))
	}
	for i := range got {
		g, w := reflect.ValueOf(got[i]), reflect.ValueOf(want[i])
		for f := 0; f < g.NumField(); f++ {
			if !reflect.DeepEqual(g.Field(f).Interface(), w.Field(f).Interface()) {
				return fmt.Errorf("result %d field %s = %v, library says %v",
					i, g.Type().Field(f).Name, g.Field(f).Interface(), w.Field(f).Interface())
			}
		}
	}
	return nil
}
