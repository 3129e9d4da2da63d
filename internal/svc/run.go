package svc

import (
	"fmt"
	"sync"
	"time"

	"bsisa/internal/backend"
	"bsisa/internal/compile"
	"bsisa/internal/core"
	"bsisa/internal/emu"
	"bsisa/internal/isa"
	"bsisa/internal/stats"
	"bsisa/internal/testgen"
	"bsisa/internal/uarch"
	"bsisa/internal/workload"
)

// Engine names reported in responses and logs.
const (
	engineSweep     = "sweep"
	engineSegmented = "replay-segmented"
	engineMany      = "simulate-many"
)

// builtProgram is the program artifact cached across requests. It also
// memoizes the program's predecoded op tables, one per issue width: they
// are derived from the program alone, so they live and leave with it and
// are never persisted.
type builtProgram struct {
	prog    *isa.Program
	enlarge *core.Stats // backend shaping-pass stats; nil for shapeless backends

	mu  sync.Mutex
	pre map[int]*uarch.Predecoded // issue width -> tables
}

// predecode returns the program's predecoded tables for issue width iw,
// flattening them on first use; hit reports whether the memo already held
// them. The lock is held across the flatten so concurrent jobs on one
// program build each width once.
func (bp *builtProgram) predecode(iw int) (pre *uarch.Predecoded, hit bool) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	if pre, ok := bp.pre[iw]; ok {
		return pre, true
	}
	if bp.pre == nil {
		bp.pre = make(map[int]*uarch.Predecoded)
	}
	pre = uarch.Predecode(bp.prog, iw)
	bp.pre[iw] = pre
	return pre, false
}

// cachedTrace is the trace artifact cached across requests. Immutable after
// construction.
//
// A store-mapped trace (mapped != nil) aliases read-only mmapped pages; the
// refcounted hooks forward to the mapping so the artifact cache and every
// in-flight job each hold a reference, and the file is unmapped only after
// the last of them releases.
type cachedTrace struct {
	tr        *emu.Trace
	fromStore bool
	mapped    *emu.TraceMapping // non-nil when served from the store's mmap tier
}

func (ct *cachedTrace) tryRef() bool { return ct.mapped == nil || ct.mapped.Acquire() }

func (ct *cachedTrace) unref() {
	if ct.mapped != nil {
		ct.mapped.Release()
	}
}

// zeroCopy reports whether the trace replays straight off mmapped pages.
func (ct *cachedTrace) zeroCopy() bool { return ct.mapped != nil && ct.mapped.ZeroCopy() }

// execute runs one job end to end: program (cached) → trace (cached) →
// timing engine, with the same routing rule as the CLI tools — the unified
// multi-axis sweep engine whenever the config batch qualifies (a single
// config included), per-config replay otherwise, and segment-parallel
// replay only when the request asks for segments — so service answers are
// field-for-field identical to CLI answers. The returned error (also
// recorded in the envelope's Error field) classifies the failure for the
// HTTP layer.
func (s *Server) execute(j *job) (*SimResponse, error) {
	start := time.Now()
	plan := j.plan
	resp := &SimResponse{Version: SchemaVersion, ID: j.req.ID, Experiment: "sim"}
	if plan.Sweep {
		resp.Experiment = "sweep"
	}
	if plan.Program.Workload != "" {
		resp.Scale = plan.Program.Scale
	}

	fail := func(err error) (*SimResponse, error) {
		// The code is stamped here, not in the HTTP layer: the coalescer
		// shares this envelope with followers, which must never mutate it.
		resp.Error = err.Error()
		resp.ErrorCode = ErrorCode(err)
		resp.WallMs = time.Since(start).Milliseconds()
		s.cfg.Logger.Warn("job failed",
			"job", j.id, "id", j.req.ID, "experiment", resp.Experiment,
			"wall_ms", resp.WallMs, "err", err.Error())
		return resp, err
	}

	if err := j.ctx.Err(); err != nil {
		return fail(err)
	}

	// Program artifact: compile (and enlarge) once per distinct spec.
	progKey := programKey(plan.Program)
	pv, progHit, err := s.programs.do(progKey, func() (any, error) {
		t0 := time.Now()
		bp, err := buildProgram(plan)
		s.metrics.observeStage(stageCompile, time.Since(t0))
		return bp, err
	})
	if err != nil {
		return fail(err)
	}
	bp := pv.(*builtProgram)

	// Timing engine. Segmented replay runs only on request, and only with
	// workers to spend.
	engine, stage := engineMany, stageReplay
	sweepable, _ := uarch.CanSweep(plan.Configs)
	switch {
	case plan.Segments > 0 && uarch.CanSegment(plan.Configs[0]) && s.jobWorkers() > 1:
		engine, stage = engineSegmented, stageSegReplay
	case sweepable && uarch.CanSweepKind(plan.Kind()):
		engine, stage = engineSweep, stageSweep
	}
	resp.Engine = engine

	// Trace artifact: record the committed stream once per program+budget. A
	// configured store interposes on the miss path: load-and-validate from
	// disk first (a hit skips the recording entirely), and write a fresh
	// recording through so the next process starts warm. Store failures only
	// ever degrade to a re-record — they never fail the job.
	tKey := traceKey(progKey, plan.EmuCfg.MaxOps)
	tv, traceHit, err := s.traces.do(tKey, func() (any, error) {
		if st := s.cfg.Store; st != nil {
			if mt, ok := st.LoadTraceMapped(tKey, bp.prog, plan.EmuCfg); ok {
				return &cachedTrace{tr: mt.Trace(), fromStore: true, mapped: mt}, nil
			}
		}
		t0 := time.Now()
		tr, err := emu.Record(bp.prog, plan.EmuCfg)
		s.metrics.observeStage(stageTrace, time.Since(t0))
		if err != nil {
			return nil, err
		}
		s.metrics.traceRecords.Add(1)
		if st := s.cfg.Store; st != nil {
			if serr := st.SaveTrace(tKey, tr, nil); serr != nil {
				s.cfg.Logger.Warn("trace store write failed", "key", tKey, "err", serr.Error())
			}
		}
		return &cachedTrace{tr: tr}, nil
	})
	if err != nil {
		return fail(err)
	}
	ct := tv.(*cachedTrace)
	// The do() return handed this job its own reference on the mapped trace;
	// hold it until the timing engines below have fully drained, so cache
	// turnover or store eviction can never unmap pages mid-replay.
	defer ct.unref()
	tr := ct.tr

	// The sweep engine schedules over the program's predecoded tables.
	var pre *uarch.Predecoded
	preHit := false
	if engine == engineSweep {
		pre, preHit = bp.predecode(plan.Configs[0].EffectiveIssueWidth())
		s.metrics.countPredecode(preHit)
	}
	resp.ArtifactCache = &ArtifactHits{
		Program: progHit, Trace: traceHit, Predecode: preHit,
		Store: ct.fromStore, Mmap: ct.zeroCopy(),
	}

	t0 := time.Now()
	var results []*uarch.Result
	switch engine {
	case engineSweep:
		results, err = uarch.SweepPredecoded(j.ctx, tr, plan.Configs, s.cfg.JobWorkers, pre)
	case engineSegmented:
		var r *uarch.Result
		r, err = uarch.ReplayTraceSegmentedContext(j.ctx, tr, plan.Configs[0], uarch.SegmentOptions{
			Workers:  s.cfg.JobWorkers,
			Segments: plan.Segments,
			Observer: segObserver{s.metrics},
		})
		if err == nil {
			results = []*uarch.Result{r}
		}
	default:
		results, err = uarch.SimulateManyContext(j.ctx, tr, plan.Configs, s.cfg.JobWorkers)
	}
	engineWall := time.Since(t0)
	s.metrics.observeStage(stage, engineWall)
	if err != nil {
		return fail(err)
	}

	resp.Results = make([]SimResult, len(results))
	for i, r := range results {
		resp.Results[i] = ResultOf(plan.ICacheBytes[i], r)
		if plan.Predictors != nil {
			resp.Results[i].Predictor = plan.Predictors[i]
		}
	}
	resp.Table = renderTable(plan, resp.Results)
	resp.WallMs = time.Since(start).Milliseconds()
	s.cfg.Logger.Info("job done",
		"job", j.id, "id", j.req.ID, "experiment", resp.Experiment, "engine", engine,
		"configs", len(plan.Configs), "events", tr.NumEvents(),
		"program_cache_hit", progHit, "trace_cache_hit", traceHit,
		"engine_ms", engineWall.Milliseconds(), "wall_ms", resp.WallMs)
	return resp, nil
}

// buildProgram compiles the plan's program and runs its backend's shaping
// pass (the enlarger for block-structured, the linear reshaper for
// basicblocker, nothing for the others). Jobs waiting on the same artifact
// share this build, so it deliberately takes no context: a canceled first
// requester must not abort an artifact that other requests are queued on.
func buildProgram(plan *Plan) (*builtProgram, error) {
	p := plan.Program
	var src, name string
	switch {
	case p.Source != "":
		src, name = p.Source, "request"
	case p.Seed != nil:
		src, name = testgen.Program(*p.Seed), fmt.Sprintf("seed-%d", *p.Seed)
	default:
		prof, ok := workload.ProfileByName(p.Workload, p.Scale)
		if !ok {
			return nil, fmt.Errorf("%w: unknown workload %q", ErrBadProgram, p.Workload)
		}
		var err error
		src, err = workload.Source(prof)
		if err != nil {
			return nil, err
		}
		name = p.Workload
	}
	be, err := backend.Get(p.ISA)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadProgram, err)
	}
	prog, err := compile.Compile(src, name, compile.DefaultOptions(be.Kind()))
	if err != nil {
		// The program came from the request, so a compile failure is a
		// client error.
		return nil, fmt.Errorf("%w: %v", ErrBadProgram, err)
	}
	st, err := be.Shape(prog, plan.EnlargeParams())
	if err != nil {
		return nil, err
	}
	return &builtProgram{prog: prog, enlarge: st}, nil
}

// renderTable renders the human-oriented table for a service response,
// mirroring bsim's sweep output columns.
func renderTable(plan *Plan, results []SimResult) *Table {
	multiAxis := plan.Sweep && plan.Predictors != nil
	t := &stats.Table{
		Columns: []string{"ICache", "Cycles", "IPC", "ICMiss%", "Mispredicts"},
	}
	switch {
	case multiAxis:
		t.Title = fmt.Sprintf("Multi-axis sweep (%s)", plan.Program.ISA)
		t.Columns = []string{"ICache", "Predictor", "Cycles", "IPC", "ICMiss%", "Mispredicts"}
	case plan.Sweep:
		t.Title = fmt.Sprintf("ICache sweep (%s)", plan.Program.ISA)
	default:
		t.Title = fmt.Sprintf("Timing (%s)", plan.Program.ISA)
	}
	for _, r := range results {
		label := fmt.Sprintf("%dB", r.ICacheBytes)
		if r.ICacheBytes == 0 {
			label = "perfect"
		}
		miss := 0.0
		if r.ICache.Accesses > 0 {
			miss = 100 * float64(r.ICache.Misses) / float64(r.ICache.Accesses)
		}
		mp := r.TrapMispredicts + r.FaultMispredicts + r.Misfetches
		if multiAxis {
			t.AddRow(label, predictorLabel(r.Predictor), r.Cycles, r.IPC, fmt.Sprintf("%.2f", miss), mp)
		} else {
			t.AddRow(label, r.Cycles, r.IPC, fmt.Sprintf("%.2f", miss), mp)
		}
	}
	return TableOf(t)
}

// predictorLabel renders a predictor point compactly ("default" when every
// knob keeps the paper's value).
func predictorLabel(p *PredictorSpec) string {
	if p == nil {
		return "default"
	}
	label := ""
	add := func(tag string, v int) {
		if v != 0 {
			label += fmt.Sprintf("%s%d/", tag, v)
		}
	}
	add("hist", p.HistoryBits)
	add("pht", p.PHTEntries)
	add("btb", p.BTBSets)
	add("ways", p.BTBWays)
	add("ras", p.RASDepth)
	if label == "" {
		return "default"
	}
	return label[:len(label)-1]
}
