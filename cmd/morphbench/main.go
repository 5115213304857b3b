// Command morphbench regenerates the paper's evaluation figures as CSV.
//
// Usage:
//
//	morphbench -fig 12a                     # one figure at laptop scale
//	morphbench -fig 12a,13c -scale 0.01     # bigger graphs
//	morphbench -all -quick                  # everything, quick variants
//	morphbench -list                        # available experiments
//	morphbench -fig 12a -listen :8080       # live /metrics + /vars + pprof
//	morphbench -fig 12a -cpuprofile cpu.pb  # offline pprof capture
//	morphbench scale -out scale.json        # out-of-core data-plane bench (default: stdout)
//
// Scale 1.0 corresponds to the paper's full-size graphs (do not attempt
// FR at 1.0 on a laptop). Output goes to stdout; progress to stderr.
//
// Where a figure run spends its time is a -cpuprofile away
// (`go tool pprof -top morphbench cpu.pb`); each run's stages are its
// lifecycle events in the -querylog.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"morphing/internal/bench"
	"morphing/internal/engine"
	"morphing/internal/obs"
)

func main() {
	// The out-of-core bench has its own flags; dispatch before the main
	// flag set sees the command word.
	if len(os.Args) > 1 && os.Args[1] == "scale" {
		if err := cmdScale(context.Background(), os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "morphbench: scale:", err)
			os.Exit(1)
		}
		return
	}
	var (
		fig       = flag.String("fig", "", "comma-separated experiment IDs (e.g. 12a,13c)")
		all       = flag.Bool("all", false, "run every experiment")
		list      = flag.Bool("list", false, "list experiments and exit")
		scale     = flag.Float64("scale", 0.004, "dataset scale factor (1.0 = paper size)")
		threads   = flag.Int("threads", 0, "engine worker threads (0 = GOMAXPROCS)")
		seed      = flag.Int64("seed", 1, "random seed for datasets and workloads")
		quick     = flag.Bool("quick", true, "restrict to the cheaper graphs/patterns")
		samples   = flag.Int("samples", 0, "alternative-set samples for fig 15e (0 = paper's 250, or 40 in quick mode)")
		listen    = flag.String("listen", "", "serve /metrics, /vars and /debug/pprof on this address while running")
		progress  = flag.Bool("progress", false, "report live matches/sec to stderr during experiments")
		timeout   = flag.Duration("timeout", 0, "overall deadline for the whole run; expired experiments abort at the next work-block boundary (0 = none)")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf   = flag.String("memprofile", "", "write a heap profile at exit to this file")
		queryLog  = flag.String("querylog", "", "append the structured JSONL query log (run lifecycle events) to this file")
		flightDir = flag.String("flightdir", "", "dump flight-recorder bundles for anomalous runs into this directory (default $MORPH_FLIGHT_DIR)")
	)
	flag.Parse()
	if *queryLog != "" {
		ql, err := obs.OpenEventLog(*queryLog)
		if err != nil {
			fmt.Fprintln(os.Stderr, "morphbench: -querylog:", err)
			os.Exit(1)
		}
		defer ql.Close()
		obs.SetDefaultEventLog(ql)
	}
	if *flightDir != "" {
		os.Setenv(obs.EnvFlightDir, *flightDir)
	}

	stopProf, err := obs.StartProfiles(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintln(os.Stderr, "morphbench:", err)
		os.Exit(1)
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, "morphbench: profile:", err)
		}
	}()

	if *list {
		for _, e := range bench.Registry() {
			fmt.Printf("%-10s %s\n", e.ID, e.Title)
		}
		return
	}

	if *listen != "" {
		ln, err := obs.Serve(*listen, obs.DefaultRegistry())
		if err != nil {
			fmt.Fprintln(os.Stderr, "morphbench: -listen:", err)
			os.Exit(1)
		}
		defer ln.Close()
		fmt.Fprintf(os.Stderr, "== observability endpoint on http://%s (/metrics, /vars, /debug/pprof)\n", ln.Addr())
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	cfg := bench.Config{
		Scale:   *scale,
		Threads: *threads,
		Seed:    *seed,
		Quick:   *quick,
		Samples: *samples,
		Ctx:     ctx,
	}
	var ids []string
	switch {
	case *all:
		for _, e := range bench.Registry() {
			ids = append(ids, e.ID)
		}
	case *fig != "":
		ids = strings.Split(*fig, ",")
	default:
		fmt.Fprintln(os.Stderr, "morphbench: pass -fig <id>[,<id>...], -all, or -list")
		os.Exit(2)
	}
	for _, id := range ids {
		e, err := bench.ByID(strings.TrimSpace(id))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "== fig %s: %s (scale=%v quick=%v)\n", e.ID, e.Title, cfg.Scale, cfg.Quick)
		fmt.Printf("# experiment %s: %s\n", e.ID, e.Title)
		start := time.Now()
		var prog *obs.Progress
		if *progress {
			prog = obs.StartProgress(os.Stderr, "fig "+e.ID,
				obs.DefaultRegistry().Counter(engine.MetricMatches))
		}
		err = e.Run(cfg, os.Stdout)
		prog.Stop()
		if err != nil {
			if engine.Interrupted(err) {
				marker := "RUN INTERRUPTED"
				if errors.Is(err, engine.ErrDeadlineExceeded) {
					marker = "DEADLINE EXCEEDED"
				}
				fmt.Printf("# %s: experiment %s aborted — rows above are PARTIAL\n", marker, e.ID)
				fmt.Fprintf(os.Stderr, "morphbench: experiment %s: %s: %v\n", e.ID, marker, err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "morphbench: experiment %s: %v\n", e.ID, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "== fig %s done in %v\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
}
