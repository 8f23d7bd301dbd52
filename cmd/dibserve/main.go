// Command dibserve runs the overlap pipeline as a resident, multi-tenant
// service: a pool of long-lived SPMD worlds behind an HTTP/JSON gateway.
// Clients POST read sets to /v1/jobs (JSON or FASTA), poll
// /v1/jobs/{id}, and stream hits from /v1/jobs/{id}/hits — in the exact
// TSV format the batch tool writes — while the expensive one-shot setup
// (world construction, alignment-workspace warm-up) is paid once at
// startup and amortised across every job.
//
// Endpoints:
//
//	POST /v1/jobs                submit (application/json or FASTA + query params)
//	GET  /v1/jobs/{id}           status
//	GET  /v1/jobs/{id}/hits      TSV hits (?wait=1 blocks until terminal)
//	GET  /v1/jobs/{id}/metrics   job-scoped per-rank metrics (JSON)
//	GET  /v1/stats               scheduler snapshot
//	GET  /healthz, /debug/vars, /debug/pprof/*
//
// SIGINT/SIGTERM drain gracefully: admission stops (503), queued jobs fail
// with a typed draining error, in-flight jobs finish, job metrics flush to
// -metrics, and the process exits 0.
//
// Usage:
//
//	dibserve -addr 127.0.0.1:8642 -backend dist -procs 4 -worlds 2 \
//	         [-admit-budget BYTES] [-chaos -progress-deadline 2s] \
//	         [-ready-file PATH] [-metrics out.csv]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"gnbody/internal/serve"
	"gnbody/internal/trace"
)

func main() {
	var (
		addr       = flag.String("addr", "127.0.0.1:8642", "listen address (port 0 picks a free port; see -ready-file)")
		backend    = flag.String("backend", "par", "resident-world setup, both goroutine ranks over the in-process fabric: par (one node, no deadline) or dist (per-rank kill switches, -progress-deadline, -chaos)")
		procs      = flag.Int("procs", 4, "ranks per resident world")
		worlds     = flag.Int("worlds", 2, "resident worlds in the pool (= concurrently running jobs)")
		mem        = flag.Int64("mem", 0, "per-rank exchange memory budget in bytes (0 = unlimited)")
		cacheB     = flag.Int64("cache-budget", 0, "per-rank remote-read cache budget in bytes (0 disables)")
		admit      = flag.Int64("admit-budget", 0, "admission budget: max wire bytes of all admitted read sets (0 = unlimited)")
		maxQueue   = flag.Int("max-queue", 64, "max queued (not yet running) jobs")
		maxRetries = flag.Int("max-retries", 1, "reschedules of a job lost to a rank failure before it fails for good")
		deadline   = flag.Duration("progress-deadline", 0, "dist: fail a rank blocked in a collective with no inbound traffic for this long (0 disables)")
		chaos      = flag.Bool("chaos", false, "allow jobs to arm chaos_kill_rank (dist backend only)")
		maxBody    = flag.Int64("max-body", 0, "max request body bytes (0 = 64 MiB default)")
		maxReads   = flag.Int("max-reads", 0, "max reads per job (0 = default)")
		readyFile  = flag.String("ready-file", "", "write the bound listen address to this file once serving (for scripts using port 0)")
		metricsOut = flag.String("metrics", "", "flush job-scoped per-rank metrics here on shutdown (CSV, or JSON if the path ends in .json)")
	)
	flag.Parse()

	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "dibserve: "+format+"\n", args...)
	}
	srv, err := serve.New(serve.Config{
		PoolConfig: serve.PoolConfig{
			Backend: *backend, Ranks: *procs, Worlds: *worlds,
			MemBudget: *mem, CacheBudget: *cacheB,
			AdmitBudget: *admit, MaxQueue: *maxQueue, MaxRetries: *maxRetries,
			ProgressDeadline: *deadline, Chaos: *chaos,
			Logf: logf,
		},
		MaxBody: *maxBody,
		Limits:  serve.Limits{MaxReads: *maxReads},
	})
	if err != nil {
		logf("%v", err)
		os.Exit(1)
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logf("%v", err)
		os.Exit(1)
	}
	if *readyFile != "" {
		if err := os.WriteFile(*readyFile, []byte(ln.Addr().String()+"\n"), 0o644); err != nil {
			logf("-ready-file: %v", err)
			os.Exit(1)
		}
	}
	logf("serving on %s (backend=%s, %d worlds x %d ranks, chaos=%v)",
		ln.Addr(), *backend, *worlds, *procs, *chaos)

	hs := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case s := <-sig:
		logf("%v — draining: admission stopped, finishing in-flight jobs", s)
	case err := <-serveErr:
		logf("listener failed: %v", err)
		srv.Drain()
		os.Exit(1)
	}

	// Drain first (stops admission, fails queued jobs with the typed
	// draining error, waits out in-flight jobs), then shut the HTTP side
	// down: blocked ?wait=1 pollers unblock the moment their jobs reach a
	// terminal state, so Shutdown converges quickly.
	srv.Drain()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		logf("http shutdown: %v", err)
	}
	if *metricsOut != "" {
		if err := flushJobMetrics(srv, *metricsOut); err != nil {
			logf("-metrics: %v", err)
			os.Exit(1)
		}
		logf("job metrics -> %s", *metricsOut)
	}
	st := srv.Pool().Stats()
	logf("drained: %d completed, %d failed, %d retried, %d world rebuilds",
		st.Completed, st.Failed, st.Retried, st.Rebuilds)
}

// flushJobMetrics writes every finished job's job-scoped per-rank rows.
func flushJobMetrics(srv *serve.Server, path string) error {
	var rows []trace.JobRow
	for _, j := range srv.Jobs() {
		rows = append(rows, j.Metrics()...)
	}
	return trace.WriteMetricsFile(path, "", rows, trace.WriteJobMetricsCSV, trace.WriteJobMetricsJSON)
}
