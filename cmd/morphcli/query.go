package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"time"

	"morphing/internal/engines"
	"morphing/internal/report"
	"morphing/internal/server"
)

// cmdQuery submits a query to a running morphd instead of mining
// locally: the server applies admission control, fair queuing and
// caching, and this side retries transient rejections with capped
// exponential backoff.
func cmdQuery(args []string, w, stderr io.Writer) error {
	fs := flag.NewFlagSet("query", flag.ContinueOnError)
	addr := fs.String("addr", "http://127.0.0.1:7421", "morphd base URL")
	app := fs.String("app", "count", "pipeline: count (subgraph counts) or mni (MNI supports)")
	engineName := fs.String("engine", "", "override the server's matching engine ("+engines.List+")")
	baseline := fs.Bool("baseline", false, "disable morphing server-side (the queries run as-is)")
	explain := fs.Bool("explain", false, "run in explain mode (per-pattern calibration in the report)")
	deadline := fs.Duration("deadline", 0, "per-query deadline, queued time included (0 = server default; the server clamps to its maximum)")
	retries := fs.Int("retries", 3, "retry attempts after the first try, retryable rejections only")
	client := fs.String("client", "", "client token for fairness quotas (X-Morph-Client; empty = anonymous bucket)")
	noCache := fs.Bool("nocache", false, "bypass the server's result cache and single-flight coalescing")
	jsonMode := fs.Bool("json", false, "print the result as JSON (counts, cache disposition, full run report)")
	verbose := fs.Bool("v", false, "report queue progress and retries to stderr")
	fs.Usage = func() {
		fmt.Fprintln(stderr, `usage: morphcli query [flags] <pattern ...>

Submits the patterns to a resident morphd and prints per-pattern answers,
how they were produced (cache: miss, hit or coalesced) and the
transform/mine/convert times of the run that mined them. A result on the
wire carries its run report only when the request sets "report": true;
this command always does, so -json prints the full report — for a hit,
the originating run's.

Failure taxonomy — which errors are worth retrying:

  retryable (the server is telling you "not right now"; this command
  retries them automatically up to -retries, honoring the server's
  Retry-After hint):
    queue_full       the bounded queue is at capacity (backpressure)
    quota_exhausted  your client token's in-flight fairness quota is used up
    overloaded       the admission budget has no room for this query now
    draining         the server is shutting down gracefully

  fatal (retrying the identical query fails the identical way; fix the
  query or the server configuration instead):
    bad_request      malformed patterns/app/options
    over_budget      the query's estimated match volume alone exceeds the
                     server's admission budget
    deadline         the query's own deadline expired (partial counts, if
                     any, are marked in the error)
    canceled         the query was canceled (client disconnect or drain
                     deadline); partials marked likewise
    panic            the query crashed mining; the server contained it
    internal         server-side bug

Exit status is nonzero on any failure; with -json the typed error
document (code, retryable, phase, partial counts) goes to stdout.

Flags:`)
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		return fmt.Errorf("query needs at least one pattern")
	}

	c := &server.Client{Base: *addr, Token: *client, Retries: *retries}
	if *verbose {
		c.OnEvent = func(ev server.StreamEvent) {
			switch ev.Type {
			case server.EventQueued:
				fmt.Fprintf(stderr, "queued at position %d (queue depth %d)\n", ev.Position, ev.QueueDepth)
			case server.EventStarted:
				fmt.Fprintln(stderr, "mining started")
			}
		}
	}

	req := server.QueryRequest{
		Patterns:   fs.Args(),
		App:        *app,
		Engine:     *engineName,
		Baseline:   *baseline,
		Explain:    *explain,
		DeadlineMS: deadlineMS(*deadline),
		NoCache:    *noCache,
		// The timing line below and -json both print from the run report,
		// which the server sends only when asked.
		Report: true,
	}

	// The context bounds the whole conversation — attempts plus backoff.
	// Leave headroom beyond the per-query deadline so a retry after a
	// transient rejection still fits.
	ctx := context.Background()
	if *deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(*retries+1)*(*deadline)+10*time.Second)
		defer cancel()
	}

	res, attempts, err := c.QueryAttempts(ctx, req)
	if *verbose && attempts > 1 {
		fmt.Fprintf(stderr, "used %d attempts\n", attempts)
	}
	if err != nil {
		return printQueryError(err, *jsonMode, w, stderr)
	}

	if *jsonMode {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(res)
	}
	fmt.Fprintf(w, "cache: %s\n", res.Cache)
	for i, p := range res.Patterns {
		switch {
		case res.Counts != nil:
			fmt.Fprintf(w, "%-40s %12d\n", p, res.Counts[i])
		case res.Supports != nil:
			fmt.Fprintf(w, "%-40s support %d\n", p, res.Supports[i])
		}
	}
	if rep := res.Report; rep != nil {
		var mineNS int64
		if rep.Mining != nil {
			mineNS = rep.Mining.TotalTimeNS
		}
		fmt.Fprintf(w, "engine %s; transform %v  mine %v  convert %v\n",
			rep.Engine, time.Duration(rep.TransformNS),
			time.Duration(mineNS), time.Duration(rep.ConvertNS))
	}
	return nil
}

func deadlineMS(d time.Duration) int64 {
	if d <= 0 {
		return 0
	}
	ms := d.Milliseconds()
	if ms <= 0 {
		ms = 1 // sub-millisecond deadlines still count as deadlines
	}
	return ms
}

// printQueryError surfaces a typed server failure: the code, whether a
// retry could ever help, and any partial counts from an interrupted run.
func printQueryError(err error, jsonMode bool, w, stderr io.Writer) error {
	qe, ok := server.AsQueryError(err)
	if !ok {
		return err
	}
	if jsonMode {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(qe)
		return fmt.Errorf("query failed: %s", qe.Code)
	}
	kind := "fatal"
	if qe.Retryable {
		kind = "retryable"
	}
	fmt.Fprintf(stderr, "query failed: %s (%s): %s\n", qe.Code, kind, qe.Message)
	if len(qe.Partial) > 0 {
		report.WritePartial(w, "RUN INTERRUPTED", qe.Phase, qe.Partial)
	}
	return fmt.Errorf("query failed: %s", qe.Code)
}
