// Command morphd is the resident morphing query server: it loads a
// graph, then serves pattern-mining queries over HTTP with cost-model
// admission control, bounded queuing with backpressure, per-client
// fairness quotas, a result cache with single-flight de-duplication,
// per-query deadlines, panic isolation, and graceful drain on SIGTERM.
// The one byte budget is -admission-budget, a cap on the cost model's
// combined match-volume estimate of the admitted queries.
//
// Usage:
//
//	morphd -listen :7421 -graph MI -scale 0.01 \
//	       -inflight 4 -queue 64 -client-inflight 2 \
//	       -admission-budget 256000000 -drain-timeout 10s
//
// Endpoints: POST /query (ndjson stream), GET /healthz, GET /slo
// (rolling-window objective scorecard with error-budget burn rates),
// GET /timeseries (the History sampler's ring buffers — what
// `morphcli top` renders), plus the observability surface (/metrics,
// /vars, /debug/pprof).
//
// Chaos testing: setting MORPH_FAULT (e.g. "panic@100,stall=2:50ms")
// arms the deterministic fault injector inside the serving process —
// the explicit operator opt-in for end-to-end robustness drills.
//
// On SIGTERM/SIGINT the server stops admitting (new queries receive the
// retryable "draining" rejection), lets in-flight queries finish until
// -drain-timeout, cancels stragglers (their clients receive typed
// errors with marked partial counts), flushes the query log, and exits 0
// on a clean drain.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"morphing/internal/dataset"
	"morphing/internal/engines"
	"morphing/internal/faultinject"
	"morphing/internal/graph"
	"morphing/internal/obs"
	"morphing/internal/server"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "morphd:", err)
		os.Exit(1)
	}
}

func run() error {
	listen := flag.String("listen", "127.0.0.1:7421", "serve the query API on this address")
	graphName := flag.String("graph", "MI", "dataset recipe (MI, MG, PR, OK, FR)")
	scale := flag.Float64("scale", 0.01, "dataset scale factor")
	binPath := flag.String("bin", "", "serve this binary graph file instead of a generated dataset (mmap when supported; storage-tier attribution and residency go live)")
	engineName := flag.String("engine", "peregrine", "default matching engine ("+engines.List+")")
	threads := flag.Int("threads", 0, "per-query engine worker threads (0 = GOMAXPROCS)")
	inflight := flag.Int("inflight", 4, "worker pool size: max concurrently mining queries")
	queueLen := flag.Int("queue", 64, "bounded query-queue capacity (backpressure beyond it)")
	clientInflight := flag.Int("client-inflight", 0, "per-client in-flight quota (0 = unlimited)")
	admissionBudget := flag.Uint64("admission-budget", 0, "cap on combined estimated match bytes of admitted queries (0 = unlimited)")
	defaultDeadline := flag.Duration("default-deadline", 30*time.Second, "deadline applied to queries that carry none")
	maxDeadline := flag.Duration("max-deadline", 5*time.Minute, "upper clamp on requested deadlines")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "how long graceful drain waits before canceling stragglers")
	retryAfter := flag.Duration("retry-after", 250*time.Millisecond, "retry-after hint attached to retryable rejections")
	cacheSize := flag.Int("cache", 256, "result cache capacity in entries (0 uses the default, negative disables caching)")
	queryLog := flag.String("querylog", "", "append the structured JSONL query log to this file")
	flightDir := flag.String("flightdir", "", "dump flight-recorder bundles for anomalous runs into this directory (default $MORPH_FLIGHT_DIR)")
	slowQuery := flag.Duration("slowquery", 0, "treat runs slower than this wall time as anomalous (flight-recorder trigger)")
	sampleInterval := flag.Duration("sample-interval", time.Second, "History sampler period backing /timeseries (negative disables)")
	historyCap := flag.Int("history", 0, "time-series points retained per series (0 = 360)")
	sloWindow := flag.Duration("slo-window", 5*time.Minute, "rolling window for /slo burn rates")
	sloLatency := flag.Duration("slo-latency", time.Second, "per-phase latency objective")
	sloLatencyGoal := flag.Float64("slo-latency-goal", 0.99, "fraction of queries that must meet the latency objective")
	sloErrorGoal := flag.Float64("slo-error-goal", 0.01, "maximum acceptable failed-query fraction")
	flag.Parse()

	var ql *obs.EventLog
	if *queryLog != "" {
		var err error
		ql, err = obs.OpenEventLog(*queryLog)
		if err != nil {
			return fmt.Errorf("-querylog: %w", err)
		}
		defer ql.Close()
		obs.SetDefaultEventLog(ql)
	}
	flightPolicy := obs.DefaultFlightPolicy()
	if *flightDir != "" {
		flightPolicy.Dir = *flightDir
	}
	flightPolicy.SlowQuery = *slowQuery

	if cfg, _, armed, err := faultinject.ArmFromEnv(); err != nil {
		return err
	} else if armed {
		fmt.Fprintf(os.Stderr, "morphd: CHAOS MODE — fault injector armed from $%s: %+v\n",
			faultinject.EnvFault, cfg)
	}

	var g graph.Adjacency
	if *binPath != "" {
		h, err := graph.Open(*binPath, graph.OpenOptions{})
		if err != nil {
			return err
		}
		defer h.Close()
		g = h.Graph()
		fmt.Fprintf(os.Stderr, "morphd: opened %s (mmap=%v)\n", *binPath, h.Mapped())
	} else {
		rec, err := dataset.ByName(*graphName)
		if err != nil {
			return err
		}
		if g, err = rec.Scaled(*scale).Generate(); err != nil {
			return err
		}
	}

	srv, err := server.New(g, server.Config{
		Engine:            *engineName,
		Threads:           *threads,
		MaxInFlight:       *inflight,
		MaxQueue:          *queueLen,
		PerClientInFlight: *clientInflight,
		AdmissionBudget:   *admissionBudget,
		DefaultDeadline:   *defaultDeadline,
		MaxDeadline:       *maxDeadline,
		DrainTimeout:      *drainTimeout,
		RetryAfter:        *retryAfter,
		CacheSize:         *cacheSize,
		Flight:            &flightPolicy,
		SampleInterval:    *sampleInterval,
		HistoryCapacity:   *historyCap,
		SLO: server.SLOConfig{
			Window:           *sloWindow,
			LatencyObjective: *sloLatency,
			LatencyGoal:      *sloLatencyGoal,
			ErrorGoal:        *sloErrorGoal,
		},
	})
	if err != nil {
		return err
	}

	httpSrv := &http.Server{Addr: *listen, Handler: srv.Handler()}
	errCh := make(chan error, 1)
	go func() {
		if err := httpSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			errCh <- err
		}
	}()
	source := fmt.Sprintf("%s scale %v", *graphName, *scale)
	if *binPath != "" {
		source = *binPath
	}
	fmt.Fprintf(os.Stderr, "morphd: serving %s (%d vertices, %d edges) on %s\n",
		source, g.NumVertices(), g.NumEdges(), *listen)

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM, syscall.SIGINT)
	select {
	case err := <-errCh:
		return err
	case sig := <-sigCh:
		fmt.Fprintf(os.Stderr, "morphd: %v — draining (deadline %v)\n", sig, *drainTimeout)
	}

	// Graceful drain: stop admitting, let in-flight finish or hit the
	// drain deadline, then close the HTTP listener once every in-flight
	// response has been written.
	t0 := time.Now()
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout+30*time.Second)
	defer cancel()
	if err := srv.Drain(drainCtx); err != nil {
		fmt.Fprintln(os.Stderr, "morphd: drain:", err)
	}
	shutCtx, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		httpSrv.Close()
	}
	if ql != nil {
		ql.Close() // flush the query log before exiting
	}
	fmt.Fprintf(os.Stderr, "morphd: drained in %v, bye\n", time.Since(t0).Round(time.Millisecond))
	return nil
}
