package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"bsisa/internal/svc"
)

// service is an in-process bsimd: svc.Server behind a loopback HTTP
// listener, configured as bsimd's defaults configure it, with a store.
type service struct {
	srv    *svc.Server
	hs     *http.Server
	url    string
	served chan error
}

func startService(storeDir string) (*service, error) {
	store, err := svc.NewStore(storeDir)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &service{
		srv: svc.NewServer(svc.ServerConfig{
			Store:          store,
			DefaultTimeout: 5 * time.Minute,
			// bsimd logs every job; format the same lines, drop the bytes.
			Logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
		}),
		url:    "http://" + ln.Addr().String(),
		served: make(chan error, 1),
	}
	s.hs = &http.Server{Handler: s.srv.Handler()}
	go func() { s.served <- s.hs.Serve(ln) }()
	return s, nil
}

// close shuts the listener down, waits for the serve loop, then drains the
// worker pool.
func (s *service) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	s.srv.Close()
	return err
}

// metrics scrapes /metrics.
func (s *service) metrics() (promSample, error) {
	resp, err := http.Get(s.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return parseProm(string(data))
}

// serveRun is the state of one serve-* run.
type serveRun struct {
	rc     *runCtx
	hot    bool
	in     *serveInputs
	svc    *service
	client *loadClient
	root   int // root span id (traced runs)
}

func runServe(rc *runCtx, hot bool) (*outcome, error) {
	p := rc.p
	var in *serveInputs
	var err error
	if hot {
		nOpen := int(p.hotRate * float64(rc.seconds) * p.hotOpenShare)
		nClosed := int(p.hotCapacity * float64(rc.seconds) * (1 - p.hotOpenShare))
		in, err = hotInputs(rc.seed, p.hotScale, p.hotRate, nOpen, nClosed, p.clients)
	} else {
		in, err = coldInputs(rc.seed, p.coldScale, int(p.coldCapacity*float64(rc.seconds)))
	}
	if err != nil {
		return nil, err
	}
	r := &serveRun{rc: rc, hot: hot, in: in, root: rc.rootSpan}

	// Set-up: server start (plus store and cache warm-up for serve-hot),
	// repeated on fresh state; the last server is the one measured.
	var setups []float64
	nSetups := p.setups
	if !hot {
		nSetups = p.coldSetups
	}
	for k := 0; k < nSetups; k++ {
		if r.svc != nil {
			if err := r.stop(); err != nil {
				return nil, err
			}
		}
		runtime.GC()
		t0 := time.Now()
		if err := r.start(k); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer func() {
		if r.svc != nil {
			r.stop()
		}
	}()

	// Timed phase.
	before, err := r.svc.metrics()
	if err != nil {
		return nil, err
	}
	planPath, err := writeLoadPlan(rc.work, newLoadPlan(r.svc.url, p.clients, in))
	if err != nil {
		return nil, err
	}
	runtime.GC()
	a0 := totalAlloc()
	resPath, err := spawnLoadgen(planPath)
	if err != nil {
		return nil, err
	}
	alloc := totalAlloc() - a0
	rss := peakRSSMB()
	after, err := r.svc.metrics()
	if err != nil {
		return nil, err
	}
	delta := after.delta(before)
	if err := r.stop(); err != nil {
		return nil, err
	}
	lr, err := readLoadResult(resPath)
	if err != nil {
		return nil, err
	}
	openS, closedS := lr.Open, lr.Closed

	items := append(append([]item(nil), in.open...), in.closed...)
	samples := append(append([]sample(nil), openS...), closedS...)
	wall := phaseWall(samples)
	r.traceRequests(openS, closedS)

	// The scored latencies are the closed loop's: callers that each wait
	// for their answer. The open loop's (independent users, timed from due
	// times) are reported per layer without a bound: on the 2-core
	// reference host their run-to-run spread was 0.3 for the median and up
	// to 0.65 for the tail, queueing amplifying the host's own swings.
	lat, openLat, late := latencies(closedS), latencies(openS), make([]float64, len(openS))
	for i := range openS {
		late[i] = ms(openS[i].Wake.Sub(openS[i].Due))
	}
	tl := tailOf(lat)
	closedWall := phaseWall(closedS)
	out := &outcome{
		attempted: len(samples),
		e2e: map[string]float64{
			"setup_s":         median(setups),
			"wall_s":          wall.Seconds(),
			"throughput_rps":  float64(len(closedS)) / closedWall.Seconds(),
			"latency_p50_ms":  median(lat),
			"latency_tail_ms": tl.Value,
			"heap_alloc_mb":   float64(alloc) / (1 << 20),
		},
		notes: map[string]any{"latency_tail": tl, "setups_s": setups},
	}
	lateP99 := nearestRank(sortedCopy(late), 99)
	openTail := tailOf(openLat)
	out.layer = map[string]float64{
		"process.peak_rss_mb":  rss,
		"loadgen.open_p50_ms":  median(openLat),
		"loadgen.open_tail_ms": openTail.Value,
		"loadgen.late_p99_ms":  lateP99,
		"loadgen.sent":         float64(len(samples)),
	}
	out.notes["open_latency_tail"] = openTail
	out.notes["loadgen_late_p99_ms"] = lateP99
	if hot && lateP99 > p.lateLimitMs {
		out.invalid = fmt.Sprintf("load generator fell behind: p99 lateness %.1f ms > %.0f ms", lateP99, p.lateLimitMs)
		return out, nil
	}

	// Correctness: every timed response against the library path, outside
	// every metric above. Traced, the same pass times each layer.
	l := &lib{tr: rc.tr, parent: r.root, workers: p.clients}
	if rc.tr != nil {
		st, err := svc.NewStore(filepath.Join(rc.work, "probe-store"))
		if err != nil {
			return nil, err
		}
		l.store = st
	}
	want, err := l.expectAll(in, p.clients)
	if err != nil {
		return nil, fmt.Errorf("library path: %w", err)
	}
	failed, first := checkSamples(items, samples, want)
	out.failed = failed
	if first != nil {
		out.notes["first_failure"] = first.Error()
	}
	if rc.tr != nil {
		out.layer = mergeMetrics(out.layer, svcMetrics(samples, delta))
		out.weight = serveWeights(items, samples)
	}
	return out, nil
}

// start brings up a server on a fresh store and, for serve-hot, warms its
// store, program, trace and predecode caches with one request per program.
func (r *serveRun) start(k int) error {
	dir := filepath.Join(r.rc.work, fmt.Sprintf("store-%d", k))
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	sp := r.rc.tr.start(r.root, "bench", "setup", 0)
	defer r.rc.tr.end(sp)
	s, err := startService(dir)
	if err != nil {
		return err
	}
	r.svc, r.client = s, newLoadClient(s.url, r.rc.p.clients)
	if !r.hot {
		return nil
	}
	warm := closedLoop(context.Background(), r.client, r.in.warm, r.rc.p.clients, fmt.Sprintf("warm%d", k))
	for i := range warm {
		if !warm[i].ok() {
			return fmt.Errorf("warm-up request %d failed: %s (HTTP %d)", i, warm[i].Err, warm[i].Code)
		}
		r.rc.tr.add(sp, "svc", "svc.request", int64(-1-i), warm[i].Sent, warm[i].Done)
	}
	return nil
}

func (r *serveRun) stop() error {
	r.client.close()
	err := r.svc.close()
	r.svc = nil
	return err
}

// traceRequests records each load phase as a loadgen span (its self time
// is the generator idling between due times) and, inside it, each request
// as a loadgen span (due until sent: time the request waited for the
// generator or a free connection) and an svc span (the HTTP round trip).
func (r *serveRun) traceRequests(phases ...[]sample) {
	id := int64(0)
	for k, ss := range phases {
		if len(ss) == 0 {
			continue
		}
		first, last := phaseBounds(ss)
		ph := r.rc.tr.add(r.root, "loadgen", fmt.Sprintf("loadgen.phase%d", k), 0, first, last)
		for i := range ss {
			id++
			r.rc.tr.add(ph, "loadgen", "loadgen.wait", id, ss[i].Due, ss[i].Sent)
			r.rc.tr.add(ph, "svc", "svc.request", id, ss[i].Sent, ss[i].Done)
		}
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// latencies is each sample's latency from its due time, in ms.
func latencies(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i := range ss {
		out[i] = ms(ss[i].latency())
	}
	return out
}

// svcMetrics reads the service's own layer numbers for the timed phase:
// /metrics deltas plus what each response envelope reports.
func svcMetrics(ss []sample, delta promSample) map[string]float64 {
	n := float64(len(ss))
	m := map[string]float64{
		"svc.hit_ratio.program":   delta.hitRatio("program"),
		"svc.hit_ratio.trace":     delta.hitRatio("trace"),
		"svc.hit_ratio.predecode": delta.hitRatio("predecode"),
		"svc.coalesced_ratio":     delta["bsimd_coalesced_requests_total"] / n,
		"svc.store.mmap_per_req":  delta[`bsimd_store_mmap_events_total{event="map"}`] / n,
	}
	for _, st := range []string{"compile", "trace", "replay", "sweep", "segreplay"} {
		m["svc.stage."+st+"_ms"] = delta.stageMs(st)
	}
	engines := map[string]float64{}
	var overhead []float64
	for i := range ss {
		if !ss[i].ok() {
			continue
		}
		engines[ss[i].Resp.Engine]++
		if !ss[i].Resp.Coalesced {
			overhead = append(overhead, ms(ss[i].Done.Sub(ss[i].Sent))-float64(ss[i].Resp.WallMs))
		}
	}
	for _, e := range []string{"sweep", "replay-segmented", "simulate-many"} {
		m["svc.engine_share."+e] = engines[e] / n
	}
	m["svc.overhead_ms"] = median(overhead)
	return m
}

// serveWeights counts, per library span, how often the timed phase needed
// that call, from each response's envelope: a program-cache miss compiled
// the program, a trace-cache miss mapped its trace from the store or
// recorded and saved it, a predecode miss flattened it, and every response
// that was not coalesced onto another ran its engine once.
func serveWeights(items []item, ss []sample) func(span) float64 {
	w := map[string]map[int64]float64{}
	inc := func(name string, id int) {
		if w[name] == nil {
			w[name] = map[int64]float64{}
		}
		w[name][int64(id)]++
	}
	for i := range ss {
		resp := ss[i].Resp
		if !ss[i].ok() || resp.Coalesced || resp.ArtifactCache == nil {
			continue
		}
		it, ac := items[i], resp.ArtifactCache
		if !ac.Program {
			for _, n := range []string{spSource, spParse, spCheck, spBuild, spShape} {
				inc(n, it.Prog)
			}
		}
		switch {
		case ac.Trace:
		case ac.Store:
			inc(spMap, it.Prog)
		default:
			inc(spRecord, it.Prog)
			inc(spSave, it.Prog)
		}
		switch resp.Engine {
		case "sweep":
			if !ac.Predecode {
				inc(spPredecode, it.Prog)
			}
			inc(spSweep, it.Distinct)
		case "replay-segmented":
			inc(spReplay, it.Distinct)
			inc(spSegmented, it.Distinct)
		case "simulate-many":
			if it.Kind == kindGrid {
				inc(spMany, it.Distinct)
			} else {
				inc(spReplay, it.Distinct)
			}
		}
	}
	return func(s span) float64 { return w[s.Name][s.Req] }
}
