package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"time"

	"morphing/internal/bench"
	"morphing/internal/engine"
	"morphing/internal/obs"
)

// cmdFig regenerates the paper's evaluation figures (internal/bench) as
// CSV: each experiment's rows go to stdout under a "# experiment <id>:
// <title>" header, progress to stderr. With no ID it lists the registry;
// "all" runs every experiment. Scale 1.0 is the paper's graph sizes.
func cmdFig(ctx context.Context, args []string, w, stderr io.Writer) error {
	fs := flag.NewFlagSet("fig", flag.ContinueOnError)
	scale := fs.Float64("scale", 0.004, "dataset scale factor (1.0 = paper size)")
	threads := fs.Int("threads", 0, "engine worker threads (0 = GOMAXPROCS)")
	seed := fs.Int64("seed", 1, "random seed for datasets and workloads")
	quick := fs.Bool("quick", true, "restrict to the cheaper graphs/patterns")
	samples := fs.Int("samples", 0, "alternative-set samples for fig 15e (0 = paper's 250, or 40 in quick mode)")
	progress := fs.Bool("progress", false, "report live matches/sec to stderr during experiments")
	timeout := fs.Duration("timeout", 0, "overall deadline for the whole run; expired experiments abort at the next work-block boundary (0 = none)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		for _, e := range bench.Registry() {
			fmt.Fprintf(w, "%-10s %s\n", e.ID, e.Title)
		}
		return nil
	}
	var exps []bench.Experiment
	if fs.NArg() == 1 && fs.Arg(0) == "all" {
		exps = bench.Registry()
	} else {
		for _, id := range fs.Args() {
			e, err := bench.ByID(id)
			if err != nil {
				return err
			}
			exps = append(exps, e)
		}
	}
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	cfg := bench.Config{Scale: *scale, Threads: *threads, Seed: *seed, Quick: *quick, Samples: *samples}
	for _, e := range exps {
		fmt.Fprintf(stderr, "== fig %s: %s (scale=%v quick=%v)\n", e.ID, e.Title, cfg.Scale, cfg.Quick)
		fmt.Fprintf(w, "# experiment %s: %s\n", e.ID, e.Title)
		start := time.Now()
		var prog *obs.Progress
		if *progress {
			prog = obs.StartProgress(stderr, "fig "+e.ID, obs.DefaultRegistry().Counter(engine.MetricMatches))
		}
		err := e.Run(ctx, cfg, w)
		prog.Stop()
		if err != nil {
			if engine.Interrupted(err) {
				fmt.Fprintf(w, "# %s: experiment %s aborted — rows above are PARTIAL\n", interruption(err), e.ID)
			}
			return fmt.Errorf("experiment %s: %w", e.ID, err)
		}
		fmt.Fprintf(stderr, "== fig %s done in %v\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
	return nil
}
