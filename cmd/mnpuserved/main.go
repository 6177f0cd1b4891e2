// Command mnpuserved is the simulation-as-a-service daemon: it serves
// the internal/serve HTTP API, running simulation jobs on a bounded
// worker pool with content-addressed result caching.
//
//	mnpuserved -addr localhost:8080 -workers 4 -queue 64
//
// Submit jobs with POST /v1/jobs, poll GET /v1/jobs/{id}, fetch raw
// result bytes from GET /v1/jobs/{id}/result, stream live progress and
// the final stall-cycle attribution from GET /v1/jobs/{id}/events
// (Server-Sent Events), cancel with DELETE /v1/jobs/{id};
// GET /v1/workloads lists the built-in presets and GET /metrics exposes
// the process's counter registry in Prometheus text exposition format.
// Every job carries an always-on flight recorder: fetch its window with
// GET /v1/jobs/{id}/dump (decode with mnputrace -mode postmortem), and
// -watchdog arms a per-job anomaly watchdog that snapshots the dump
// plus a CPU profile (GET /v1/jobs/{id}/profile) when a job lingers
// near its deadline. Logs are structured (log/slog), keyed
// by job ID; -log-level and -log-format select verbosity and text/json
// encoding. -debug-addr optionally serves net/http/pprof on a second
// listener (off by default); the metric registry is on the API itself,
// as GET /v1/registry (JSON) and GET /metrics (Prometheus).
// POST /v1/sweeps expands and runs a whole experiment grid
// server-side (poll GET /v1/sweeps/{id} for the aggregated result).
// -cache-dir persists the result cache on disk — one crash-safely
// written file per configuration fingerprint, warmed on restart and
// shareable between daemons (see API.md for the full endpoint
// reference). Every job and sweep unit runs on the daemon that
// accepted it.
// Every request is tagged with an X-Request-Id, timed via a
// Server-Timing header, and access-logged; submissions carry W3C
// traceparent propagation end to end — fetch a trace with
// GET /v1/traces/{id} (render it with mnputrace -mode spans), and tune
// the bounded span store with -trace-store/-trace-spans or turn
// tracing off with -no-trace.
// On SIGINT/SIGTERM the daemon stops accepting jobs, drains in-flight
// work (bounded by -drain-timeout, after which remaining jobs are
// cancelled), keeps status GETs answering throughout the drain, then
// exits.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"mnpusim/internal/obs"
	"mnpusim/internal/serve"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "mnpuserved:", err)
		os.Exit(1)
	}
}

// newLogger builds the daemon's structured logger from the flag values.
func newLogger(w io.Writer, level, format string) (*slog.Logger, error) {
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("bad -log-level %q: %w", level, err)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(w, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(w, opts)), nil
	default:
		return nil, fmt.Errorf("bad -log-format %q: want text or json", format)
	}
}

// run serves until ctx is cancelled (the signal path in main), then
// drains and returns. It returns a non-nil error if startup fails or
// the drain deadline expired with jobs still running.
func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("mnpuserved", flag.ContinueOnError)
	var (
		addr         = fs.String("addr", "localhost:8080", "TCP listen address")
		workers      = fs.Int("workers", runtime.NumCPU(), "simulation worker-pool size (concurrent jobs)")
		queue        = fs.Int("queue", 64, "queued-job bound; submits beyond it get 503")
		jobTimeout   = fs.Duration("job-timeout", 0, "default per-job simulation timeout (0 = none; specs may override)")
		drainTimeout = fs.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for in-flight jobs before cancelling them")
		cacheEntries = fs.Int("cache", 1024, "result-cache capacity (distinct configurations)")
		logLevel     = fs.String("log-level", "info", "log verbosity: debug, info, warn, or error")
		logFormat    = fs.String("log-format", "text", "log encoding: text or json")
		debugAddr    = fs.String("debug-addr", "", "serve net/http/pprof on this extra address (empty = off)")
		wdFraction   = fs.Float64("watchdog", 0.75, "anomaly watchdog: capture a flight-recorder dump and CPU profile when a job reaches this fraction of its timeout still running (0 = off; needs a job timeout)")
		wdProfile    = fs.Duration("watchdog-profile", 250*time.Millisecond, "CPU-profile capture duration when the watchdog fires")
		ringCap      = fs.Int("recorder-ring", 0, "flight-recorder ring capacity per (core, channel) track, in events (0 = default)")
		cacheDir     = fs.String("cache-dir", "", "persistent result-cache directory (empty = memory only); instances sharing one directory share results")
		noTrace      = fs.Bool("no-trace", false, "disable distributed tracing (no spans recorded, no trace/request IDs minted)")
		traceStore   = fs.Int("trace-store", 0, "max traces held in the in-memory span store (0 = default 256)")
		traceSpans   = fs.Int("trace-spans", 0, "max spans retained per trace (0 = default 4096)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	logger, err := newLogger(stdout, *logLevel, *logFormat)
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	defer ln.Close()

	reg := obs.NewRegistry()
	srv, err := serve.New(serve.Config{
		Workers:           *workers,
		QueueDepth:        *queue,
		DefaultJobTimeout: *jobTimeout,
		CacheEntries:      *cacheEntries,
		Registry:          reg,
		Logger:            logger,
		WatchdogFraction:  *wdFraction,
		WatchdogProfile:   *wdProfile,
		RecorderRingCap:   *ringCap,
		CacheDir:          *cacheDir,
		DisableTracing:    *noTrace,
		TraceMaxTraces:    *traceStore,
		TraceMaxSpans:     *traceSpans,
	})
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv.Handler()}
	logger.Info("listening", "addr", ln.Addr().String(), "workers", *workers,
		"cache_dir", *cacheDir)

	if *debugAddr != "" {
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			return fmt.Errorf("debug listener: %w", err)
		}
		defer dln.Close()
		ds := &http.Server{Handler: debugMux()}
		go func() { _ = ds.Serve(dln) }()
		defer ds.Close()
		logger.Info("debug listening", "debug_addr", dln.Addr().String())
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	select {
	case err := <-serveErr:
		return err // listener died before any shutdown signal
	case <-ctx.Done():
	}

	// Drain while the HTTP listener stays up, so clients keep polling
	// job status during shutdown; only then close the listener.
	logger.Info("draining", "timeout", *drainTimeout)
	dctx, dcancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer dcancel()
	drainErr := srv.Shutdown(dctx)

	hctx, hcancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer hcancel()
	if err := hs.Shutdown(hctx); err != nil {
		return err
	}
	if err := <-serveErr; err != nil && err != http.ErrServerClosed {
		return err
	}
	if drainErr != nil {
		return fmt.Errorf("drain incomplete, in-flight jobs cancelled: %w", drainErr)
	}
	logger.Info("drained cleanly")
	return nil
}

// debugMux is the optional diagnostics surface: the standard pprof
// endpoints. It binds to its own listener so the production API surface
// never exposes profiling handlers.
func debugMux() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
