// bsimd is the simulation service daemon: an HTTP/JSON API over the
// compile → enlarge → trace → simulate pipeline, with a bounded worker
// pool, per-job deadlines, an artifact cache that lets repeated sweeps over
// the same program skip compilation and trace recording, Prometheus-text
// metrics, pprof, and graceful drain on SIGTERM/SIGINT.
//
// Usage:
//
//	bsimd [-addr :8023] [-workers N] [-queue N] [-job-workers N]
//	      [-timeout D] [-cache-programs N] [-cache-traces N]
//	      [-store DIR] [-store-max-bytes N] [-log text|json] [-smoke]
//
// Endpoints:
//
//	POST /v1/sim        submit a svc.SimRequest, receive a svc.SimResponse
//	GET  /healthz       liveness
//	GET  /metrics       Prometheus text format
//	     /debug/pprof/  runtime profiling
//
// A single config on a sweepable ISA runs as a one-lane sweep (engine
// "sweep"), like a grid. Single-config requests may carry a "segments"
// field; when the config qualifies and -job-workers leaves lanes to spend,
// the job runs on the segment-parallel replay engine (engine
// "replay-segmented") instead, with its queue depth and per-segment latency
// exported on /metrics. Without segments that engine is never used.
// Concurrent identical requests coalesce onto one simulation pass; followers
// are answered from the leader's envelope with "coalesced": true and counted
// in bsimd_coalesced_requests_total.
//
// A cached program carries its predecoded op tables, one per issue width,
// built on the first sweep that needs them and dropped with the program.
//
// -store DIR layers a persistent content-addressed trace store under the
// in-memory caches: recorded traces are written through to DIR, and a
// restarted daemon pointed at the same DIR serves them back without
// re-recording — hit/miss/corruption counts and byte traffic appear on
// /metrics as bsimd_store_events_total and bsimd_store_bytes_total. Store
// hits are mmapped read-only and replayed straight out of the page cache
// (zero decode, zero steady-state allocation). Mapping traffic and resident bytes appear as
// bsimd_store_mmap_events_total and bsimd_store_mmap_resident_bytes.
// Corrupt or truncated files, and files in a superseded format version,
// are detected at validation, quarantined aside as *.corrupt, and
// rebuilt. -store-max-bytes caps the directory's total *.bstr size: after
// each write the least-recently-used files (by atime) are evicted until
// the cap holds, never touching a file an in-flight replay still has
// mapped (evictions count on bsimd_store_events_total).
//
// -smoke runs the self-check the CI service-smoke stage uses: it starts a
// server on an ephemeral port (pool shape pinned: one worker, four job
// workers) and checks, over HTTP against the direct library path: a
// Figure-6-style icache sweep, a predictor sweep served from the cached
// trace, a segmented single-config replay, a four-way head-to-head across
// every registered ISA backend (plus an unknown-ISA rejection carrying the
// machine-readable error_code), and a 32-way identical load that
// must coalesce onto one pass — then verifies cache hits, the coalesced
// count, and segment activity on /metrics, and finally restarts against the
// same trace store (the -store directory, or a temporary one) to prove a
// fresh process answers the sweep from mmapped store files with zero trace
// recordings.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"bsisa/internal/svc"
)

func main() {
	addr := flag.String("addr", ":8023", "listen address")
	workers := flag.Int("workers", 0, "simulation worker pool size (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 0, "job queue depth (0 = 2*workers)")
	jobWorkers := flag.Int("job-workers", 0, "per-job engine concurrency (0 = GOMAXPROCS)")
	timeout := flag.Duration("timeout", 5*time.Minute, "default per-job deadline (0 = none)")
	cacheProgs := flag.Int("cache-programs", 0, "compiled-program cache entries (0 = default)")
	cacheTraces := flag.Int("cache-traces", 0, "recorded-trace cache entries (0 = default)")
	storeDir := flag.String("store", "", "persistent trace store directory (empty = in-memory only)")
	storeMax := flag.Int64("store-max-bytes", 0,
		"evict least-recently-used store files once the directory exceeds this many bytes (0 = unbounded)")
	logFormat := flag.String("log", "text", "log format: text or json")
	smoke := flag.Bool("smoke", false, "run the self-check against an ephemeral server and exit")
	flag.Parse()

	var handler slog.Handler
	switch *logFormat {
	case "json":
		handler = slog.NewJSONHandler(os.Stderr, nil)
	case "text":
		handler = slog.NewTextHandler(os.Stderr, nil)
	default:
		fmt.Fprintf(os.Stderr, "bsimd: unknown -log format %q\n", *logFormat)
		os.Exit(2)
	}
	logger := slog.New(handler)

	cfg := svc.ServerConfig{
		Workers:             *workers,
		QueueDepth:          *queue,
		JobWorkers:          *jobWorkers,
		DefaultTimeout:      *timeout,
		ProgramCacheEntries: *cacheProgs,
		TraceCacheEntries:   *cacheTraces,
		Logger:              logger,
	}
	if *storeDir != "" {
		store, err := svc.NewStore(*storeDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bsimd:", err)
			os.Exit(1)
		}
		if *storeMax > 0 {
			store.SetMaxBytes(*storeMax)
		}
		cfg.Store = store
		logger.Info("trace store open", "dir", *storeDir, "max_bytes", *storeMax)
	}

	if *smoke {
		if err := runSmoke(cfg, logger); err != nil {
			fmt.Fprintln(os.Stderr, "bsimd: smoke FAIL:", err)
			os.Exit(1)
		}
		fmt.Println("bsimd: smoke PASS")
		return
	}

	server := svc.NewServer(cfg)
	httpSrv := &http.Server{Addr: *addr, Handler: server.Handler()}

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	logger.Info("bsimd listening", "addr", *addr)

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM, syscall.SIGINT)
	select {
	case sig := <-sigCh:
		logger.Info("shutting down: draining in-flight jobs", "signal", sig.String())
		// Stop accepting connections and wait for in-flight handlers —
		// each of which is waiting on its job — then drain the pool.
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			logger.Warn("http shutdown", "err", err)
		}
		server.Close()
		logger.Info("drained, exiting")
	case err := <-errCh:
		logger.Error("serve failed", "err", err)
		server.Close()
		os.Exit(1)
	}
}
