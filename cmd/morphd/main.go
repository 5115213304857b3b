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
// The other serving values are constants: a query carrying no deadline
// runs under 30 s and none runs longer than 5 min, a request naming no
// engine mines on peregrine, the result cache holds 256 entries, and
// flight-recorder bundles go to $MORPH_FLIGHT_DIR. DESIGN.md §13's knob
// table lists every flag with its default and the caller that sets it.
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
	threads := flag.Int("threads", 0, "per-query engine worker threads (0 = GOMAXPROCS)")
	inflight := flag.Int("inflight", 4, "worker pool size: max concurrently mining queries")
	queueLen := flag.Int("queue", 64, "bounded query-queue capacity (backpressure beyond it)")
	clientInflight := flag.Int("client-inflight", 0, "per-client in-flight quota (0 = unlimited)")
	admissionBudget := flag.Uint64("admission-budget", 0, "cap on combined estimated match bytes of admitted queries (0 = unlimited)")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "how long graceful drain waits before canceling stragglers")
	queryLog := flag.String("querylog", "", "append the structured JSONL query log to this file")
	slowQuery := flag.Duration("slowquery", 0, "treat runs slower than this wall time as anomalous (flight-recorder trigger)")
	sampleInterval := flag.Duration("sample-interval", time.Second, "History sampler period backing /timeseries (negative disables)")
	sloWindow := flag.Duration("slo-window", 5*time.Minute, "rolling window for /slo burn rates")
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
	flightPolicy := obs.DefaultFlightPolicy() // bundles go to $MORPH_FLIGHT_DIR
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
		Threads:           *threads,
		MaxInFlight:       *inflight,
		MaxQueue:          *queueLen,
		PerClientInFlight: *clientInflight,
		AdmissionBudget:   *admissionBudget,
		DrainTimeout:      *drainTimeout,
		Flight:            &flightPolicy,
		SampleInterval:    *sampleInterval,
		SLOWindow:         *sloWindow,
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
