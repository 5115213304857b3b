package enginetest

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"morphing/internal/aggr"
	"morphing/internal/apps/fsm"
	"morphing/internal/autozero"
	"morphing/internal/bigjoin"
	"morphing/internal/core"
	"morphing/internal/dataset"
	"morphing/internal/engine"
	"morphing/internal/faultinject"
	"morphing/internal/graph"
	"morphing/internal/graphpi"
	"morphing/internal/obs"
	"morphing/internal/pattern"
	"morphing/internal/peregrine"
	"morphing/internal/plan"
)

// cancelGraph is dense enough that the match stream is long (cancel
// points are plentiful) and large enough that the root level spans many
// work blocks (every worker passes a block boundary after a cancel).
func cancelGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := dataset.ErdosRenyi(400, 14, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// leakCheck snapshots the goroutine count and fails the test if it has
// not returned to (near) the baseline by cleanup. Hand-rolled retry loop:
// aborted workers unwind asynchronously after the run returns.
func leakCheck(t *testing.T) {
	t.Helper()
	base := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(5 * time.Second)
		for {
			n := runtime.NumGoroutine()
			if n <= base+2 { // slack for runtime/test harness goroutines
				return
			}
			if time.Now().After(deadline) {
				t.Errorf("goroutine leak: %d at start, %d after 5s drain", base, n)
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
	})
}

// TestCancelMidRunReturnsTypedPartial cancels from inside the visitor —
// a deterministic mid-run signal — and checks every engine honors the
// partial-result contract: a typed error in both vocabularies, stats for
// the work actually done, and no leaked workers.
func TestCancelMidRunReturnsTypedPartial(t *testing.T) {
	leakCheck(t)
	g := cancelGraph(t)
	p := pattern.TailedTriangle() // plentiful matches on a dense graph
	for _, e := range allEngines() {
		t.Run(e.Name(), func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var seen atomic.Uint64
			st, err := e.MatchCtx(ctx, g, p, func(_ int, _ []uint32) {
				if seen.Add(1) == 5 {
					cancel()
				}
			})
			if err == nil {
				t.Fatal("canceled run returned nil error")
			}
			if !errors.Is(err, engine.ErrCanceled) {
				t.Fatalf("err = %v, want engine.ErrCanceled", err)
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v must wrap context.Canceled", err)
			}
			if !engine.Interrupted(err) {
				t.Fatalf("Interrupted(%v) = false", err)
			}
			if st == nil {
				t.Fatal("interrupted run must return partial stats")
			}
			if seen.Load() < 5 {
				t.Fatalf("visitor saw %d matches before cancel, want >= 5", seen.Load())
			}
		})
	}
}

// TestCancelPartialCountConsistency checks the partial count and the
// partial stats agree: the backtracking executor's interrupted total
// must equal its Stats.Matches (both are merged from the same worker
// counters after all workers exited).
func TestCancelPartialCountConsistency(t *testing.T) {
	leakCheck(t)
	g := cancelGraph(t)
	p := pattern.TailedTriangle()
	pl, err := plan.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var seen atomic.Uint64
	count, st, err := engine.BacktrackCtx(ctx, g, pl, engine.EachMatch(func(_ int, _ []uint32) {
		if seen.Add(1) == 5 {
			cancel()
		}
	}), engine.ExecOptions{Threads: 3}, nil)
	if !errors.Is(err, engine.ErrCanceled) {
		t.Fatalf("err = %v, want engine.ErrCanceled", err)
	}
	if st == nil || count != st.Matches {
		t.Fatalf("partial count %d != partial stats.Matches %v", count, st)
	}
	full, _, err := engine.BacktrackCtx(context.Background(), g, pl, nil, engine.ExecOptions{Threads: 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if count >= full {
		t.Fatalf("partial count %d not below full count %d", count, full)
	}
}

// TestPreExpiredContextStartsNoWork: a context that is already dead must
// fail fast with the right sentinel and without mining anything.
func TestPreExpiredContextStartsNoWork(t *testing.T) {
	forEachSuite(t, 3, 0, func(t *testing.T, g graph.Adjacency, plain *graph.Graph) {
		p := pattern.Triangle()

		canceled, cancel := context.WithCancel(context.Background())
		cancel()
		expired, cancel2 := context.WithDeadline(context.Background(), time.Now().Add(-time.Hour))
		defer cancel2()

		for _, e := range allEngines() {
			c, _, err := e.CountCtx(canceled, g, p)
			if !errors.Is(err, engine.ErrCanceled) || c != 0 {
				t.Errorf("%s: canceled pre-check: count=%d err=%v", e.Name(), c, err)
			}
			c, _, err = e.CountCtx(expired, g, p)
			if !errors.Is(err, engine.ErrDeadlineExceeded) || c != 0 {
				t.Errorf("%s: expired pre-check: count=%d err=%v", e.Name(), c, err)
			}
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Errorf("%s: deadline error must wrap context.DeadlineExceeded, got %v", e.Name(), err)
			}
		}
	})
}

// TestDeadlineCancelsInsideARootSubtree: on a graph with hubs one root's
// subtree of a 7-vertex path holds more matches than any deadline allows
// for, so a worker that polled only where it claims a block would outlive
// the deadline by the whole subtree. Counting and streaming, on one thread:
// the typed error inside a second, with what was counted until then.
func TestDeadlineCancelsInsideARootSubtree(t *testing.T) {
	leakCheck(t)
	g, err := dataset.Hubbed(2000, 8, 3, 0, 11)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := plan.Build(pattern.Path(7))
	if err != nil {
		t.Fatal(err)
	}
	for name, sink := range map[string]engine.Sink{"count": nil, "stream": engine.EachMatch(func(int, []uint32) {})} {
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		t0 := time.Now()
		n, st, err := engine.BacktrackCtx(ctx, g, pl, sink, engine.ExecOptions{Threads: 1}, nil)
		cancel()
		if d := time.Since(t0); !errors.Is(err, engine.ErrDeadlineExceeded) || d > time.Second {
			t.Errorf("%s: err = %v after %v, want ErrDeadlineExceeded within 1s of a 50ms deadline", name, err, d)
		}
		if n == 0 || st == nil || st.Matches != n {
			t.Errorf("%s: partial count %d, stats %+v: want a non-zero partial the stats agree with", name, n, st)
		}
	}
}

// TestMatchLimitAndCancellationCompose: early termination and
// cancellation must coexist — whichever fires first stops the run, and
// only cancellation produces a typed error.
func TestMatchLimitAndCancellationCompose(t *testing.T) {
	leakCheck(t)
	g := cancelGraph(t)
	p := pattern.Triangle()
	eng := peregrine.New(3)

	// Limit fires first: clean result, no error.
	n, _, err := peregrine.CountUpToCtx(context.Background(), eng, g, p, 10)
	if err != nil {
		t.Fatalf("limit-only run failed: %v", err)
	}
	if n < 10 {
		t.Fatalf("limit run found %d matches, want >= 10", n)
	}

	// Cancellation fires first (pre-canceled): typed error, zero work.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	n, _, err = peregrine.CountUpToCtx(ctx, eng, g, p, 10)
	if !errors.Is(err, engine.ErrCanceled) {
		t.Fatalf("canceled limit run: err = %v, want ErrCanceled", err)
	}
	if n != 0 {
		t.Fatalf("pre-canceled run counted %d", n)
	}

	// Both armed on a live run: the run ends by one of the two and never
	// hangs; an error, if any, must be the typed cancellation.
	ctx2, cancel2 := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel2()
	_, _, err = peregrine.CountUpToCtx(ctx2, eng, g, pattern.TailedTriangle(), 1<<60)
	if err != nil && !engine.Interrupted(err) {
		t.Fatalf("composed run: unexpected hard error %v", err)
	}
}

// TestVisitorPanicIsolatedAllEngines injects a panic inside the visitor
// on every engine and asserts containment: the process survives, exactly
// one clean *engine.PanicError comes back (stack attached), and the
// sibling workers drain without leaking.
func TestVisitorPanicIsolatedAllEngines(t *testing.T) {
	leakCheck(t)
	g := cancelGraph(t)
	p := pattern.TailedTriangle()
	for _, e := range allEngines() {
		t.Run(e.Name(), func(t *testing.T) {
			_, err := e.MatchCtx(context.Background(), g, p, func(_ int, m []uint32) {
				if m[0]%97 == 3 { // deterministic, hits early and often
					panic(fmt.Sprintf("%s: visitor exploded", e.Name()))
				}
			})
			var pe *engine.PanicError
			if !errors.As(err, &pe) {
				t.Fatalf("err = %v, want *engine.PanicError", err)
			}
			if pe.Worker < 0 {
				t.Errorf("panic error lost its worker ID: %+v", pe.Worker)
			}
			if len(pe.Stack) == 0 {
				t.Error("panic error carries no stack")
			}
			if !engine.Interrupted(err) {
				t.Error("PanicError must count as an interruption")
			}
		})
	}
}

// TestPanicWithErrorValueUnwraps: panic(err) inside a UDF must stay
// reachable through errors.Is on the surfaced PanicError.
func TestPanicWithErrorValueUnwraps(t *testing.T) {
	leakCheck(t)
	forEachSuite(t, 3, 0, func(t *testing.T, g graph.Adjacency, plain *graph.Graph) {
		sentinel := errors.New("udf invariant violated")
		_, err := peregrine.New(2).MatchCtx(context.Background(), g, pattern.Triangle(),
			func(int, []uint32) { panic(sentinel) })
		if !errors.Is(err, sentinel) {
			t.Fatalf("errors.Is(err, sentinel) = false for %v", err)
		}
	})
}

// TestFaultInjectionPanicAtMatchN drives the injection harness end to
// end on every engine: a seeded panic ordinal, armed process-wide, must
// surface as one clean PanicError from a counting run — no visitor at all:
// the shared executor meets the fault where it publishes each block's
// matches — and partial counts must remain consistent. A chaos drill (MORPH_FAULT=panic@N) against a daemon
// on any engine is this path.
func TestFaultInjectionPanicAtMatchN(t *testing.T) {
	leakCheck(t)
	g := cancelGraph(t)
	p := pattern.TailedTriangle()
	for _, eng := range allEngines() {
		t.Run(eng.Name(), func(t *testing.T) {
			full, _, err := eng.CountCtx(context.Background(), g, p)
			if err != nil {
				t.Fatal(err)
			}
			for seed := uint64(1); seed <= 3; seed++ {
				target := faultinject.MatchTarget(seed, full/2)
				disarm, err := faultinject.Arm(faultinject.Config{
					PanicAtMatch: target,
					PanicMessage: fmt.Sprintf("campaign seed %d", seed),
				})
				if err != nil {
					t.Fatal(err)
				}
				count, st, err := eng.CountCtx(context.Background(), g, p)
				disarm()
				var pe *engine.PanicError
				if !errors.As(err, &pe) {
					t.Fatalf("seed %d: err = %v, want *engine.PanicError", seed, err)
				}
				if got := fmt.Sprint(pe.Value); got != fmt.Sprintf("campaign seed %d", seed) {
					t.Fatalf("seed %d: panic value %q did not round-trip", seed, got)
				}
				if st == nil || count != st.Matches {
					t.Fatalf("seed %d: partial count %d inconsistent with stats", seed, count)
				}
				// The injector panics when a published range's matches cross
				// the target, and those matches are already counted. When
				// that range is the last one the pass publishes, the partial
				// count is the full count: equal is legal, more is not.
				if count > full {
					t.Fatalf("seed %d: partial count %d above full %d", seed, count, full)
				}
			}
			// The harness must be disarmed again: a clean rerun sees full counts.
			again, _, err := eng.CountCtx(context.Background(), g, p)
			if err != nil || again != full {
				t.Fatalf("post-campaign run: count=%d err=%v, want %d, nil", again, err, full)
			}
		})
	}
}

// TestStalledWorkerIsRelievedOnEveryPlanner pins the straggler scenario on
// every engine, counting one pattern and a merged set: fault injection stalls worker 0 right after it arms a
// block, so its siblings drain the cursor, go idle, and must split the
// sleeper's untouched range — engine_tail_steals_total moves and the counts
// do not. (GOMAXPROCS is pinned to the worker count for the reason given at
// engine.TestTailStealRelievesStalledWorker.)
func TestStalledWorkerIsRelievedOnEveryPlanner(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	g, err := dataset.MiCo().Scaled(0.01).Generate()
	if err != nil {
		t.Fatal(err)
	}
	ps := []*pattern.Pattern{pattern.FourClique(), pattern.ChordalFourCycle()}
	for _, mk := range []func(o *obs.Observer) engine.Engine{
		func(o *obs.Observer) engine.Engine { return &peregrine.Engine{Threads: 4, Obs: o} },
		func(o *obs.Observer) engine.Engine { return &autozero.Engine{Threads: 4, Obs: o} },
		func(o *obs.Observer) engine.Engine { return &graphpi.Engine{Threads: 4, Obs: o} },
		func(o *obs.Observer) engine.Engine { return &bigjoin.Engine{Threads: 4, Obs: o} },
	} {
		o := &obs.Observer{Metrics: obs.NewRegistry()}
		eng := mk(o)
		t.Run(eng.Name(), func(t *testing.T) {
			want, _, err := eng.CountAllCtx(context.Background(), g, ps)
			if err != nil {
				t.Fatal(err)
			}
			disarm, err := faultinject.Arm(faultinject.Config{StallWorker: 0, StallFor: 20 * time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			defer disarm()
			steals := o.Metrics.Counter(engine.MetricTailSteals)
			before := steals.Value()
			for attempt := 0; attempt < 5 && steals.Value() == before; attempt++ {
				got, _, err := eng.CountAllCtx(context.Background(), g, ps)
				if err != nil {
					t.Fatal(err)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("stall+steal run counted %d of %v, want %d", got[i], ps[i], want[i])
					}
				}
			}
			if steals.Value() == before {
				t.Error("siblings never stole from a worker stalled on an armed block")
			}
		})
	}
}

// TestFaultInjectionCancelAfter uses the cancel-after-D injection point:
// the executor's own derived context fires mid-run and the caller sees a
// plain cooperative cancellation.
func TestFaultInjectionCancelAfter(t *testing.T) {
	leakCheck(t)
	g := cancelGraph(t)
	disarm, err := faultinject.Arm(faultinject.Config{
		CancelAfter: time.Millisecond,
		// Stall one worker at each block claim so the run reliably outlives
		// the 1ms fuse regardless of machine speed.
		StallWorker: 0,
		StallFor:    5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer disarm()
	_, _, err = peregrine.New(3).CountCtx(context.Background(), g, pattern.Path(5))
	if err != nil && !errors.Is(err, engine.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled (or clean finish)", err)
	}
	if err == nil {
		t.Skip("run finished inside the 1ms fuse; injection not observable on this machine")
	}
}

// TestRunnerInterruptedSurfacesPhaseAndPartials runs the whole morphing
// pipeline under an injected visitor panic and checks the runner-level
// contract: nil results, RunStats with the mining phase and raw
// per-alternative partial counts, and a typed error.
func TestRunnerInterruptedSurfacesPhaseAndPartials(t *testing.T) {
	leakCheck(t)
	g := cancelGraph(t)
	queries := []*pattern.Pattern{
		pattern.FourCycle().AsVertexInduced(),
		pattern.FourStar().AsVertexInduced(),
	}
	disarm, err := faultinject.Arm(faultinject.Config{PanicAtMatch: 100})
	if err != nil {
		t.Fatal(err)
	}
	defer disarm()
	r := &core.Runner{Engine: peregrine.New(3)}
	counts, stats, err := r.CountsCtx(context.Background(), g, queries)
	if counts != nil {
		t.Fatal("interrupted run must not return query counts (unsound to convert)")
	}
	if !engine.Interrupted(err) {
		t.Fatalf("err = %v, want a typed interruption", err)
	}
	var pe *engine.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *engine.PanicError", err)
	}
	if stats == nil {
		t.Fatal("interrupted run must return RunStats")
	}
	if stats.Phase != core.PhaseMine {
		t.Errorf("Phase = %q, want %q", stats.Phase, core.PhaseMine)
	}
	if len(stats.Partial) == 0 {
		t.Error("interrupted run reported no per-alternative partials")
	}
	if len(stats.Partial) != len(stats.Selection.Mine) {
		t.Errorf("partials cover %d alternatives, selection mined %d",
			len(stats.Partial), len(stats.Selection.Mine))
	}
}

// TestCancelRaceStress hammers cancellation timing under -race: many
// runs, each canceled at a different point in the stream, none may leak
// goroutines, deadlock, or return an untyped error.
func TestCancelRaceStress(t *testing.T) {
	leakCheck(t)
	g := cancelGraph(t)
	p := pattern.TailedTriangle()
	trials := 20
	if testing.Short() {
		trials = 5
	}
	for trial := 0; trial < trials; trial++ {
		for _, e := range allEngines() {
			ctx, cancel := context.WithCancel(context.Background())
			fuse := uint64(1 + trial*37)
			var seen atomic.Uint64
			_, err := e.MatchCtx(ctx, g, p, func(_ int, _ []uint32) {
				if seen.Add(1) == fuse {
					cancel()
				}
			})
			cancel()
			if err != nil && !engine.Interrupted(err) {
				t.Fatalf("trial %d %s: hard error %v", trial, e.Name(), err)
			}
		}
	}
}

// mergedLevel is an FSM level worth interrupting: the 3-edge candidates of
// a labeled graph, mined by an engine in one merged streaming pass.
func mergedLevel(t *testing.T) (*graph.Graph, []*pattern.Pattern) {
	t.Helper()
	g, err := dataset.ErdosRenyi(300, 8, 3, 17)
	if err != nil {
		t.Fatal(err)
	}
	levels := fsmLevels(t, g, g.NumVertices()/10)
	return g, levels[len(levels)-1]
}

// checkMergedPartial asserts the interruption contract of the merged MNI
// route: no tables, the mining phase, the merged decision, and one partial
// count per mined pattern that sum to what the pass delivered.
func checkMergedPartial(t *testing.T, tables []*aggr.Table, st *core.RunStats) uint64 {
	t.Helper()
	if tables != nil {
		t.Fatal("interrupted run returned tables")
	}
	if st == nil || st.Phase != core.PhaseMine || st.Trie == nil || !st.Trie.Used {
		t.Fatalf("interrupted run stats %+v", st)
	}
	if len(st.Partial) != len(st.Selection.Mine) {
		t.Fatalf("%d partial counts for %d mined patterns", len(st.Partial), len(st.Selection.Mine))
	}
	var sum uint64
	for _, pc := range st.Partial {
		sum += pc.Count
	}
	if st.Mining == nil || sum != st.Mining.Matches || st.Mining.TriePasses != 1 {
		t.Fatalf("partial counts sum to %d, mining stats %+v", sum, st.Mining)
	}
	return sum
}

// TestMergedMNILifecycle interrupts MNITablesCtx on the merged route —
// an FSM level as one streaming pass — every way the contract names: a
// cancel mid-pass, an injected panic at match N counted across plans, a
// pre-expired context. Interrupted runs return stats.Partial with one
// count per mined pattern and never a table; no worker outlives its pass.
// Run under -race in CI.
func TestMergedMNILifecycle(t *testing.T) {
	leakCheck(t)
	g, level := mergedLevel(t)
	r := &core.Runner{Engine: peregrine.New(3)}
	_, fst, err := r.MNITablesCtx(context.Background(), g, level)
	if err != nil {
		t.Fatal(err)
	}
	total := fst.Mining.Matches
	perPlan, _, err := r.Engine.CountAllCtx(context.Background(), g, level)
	if err != nil {
		t.Fatal(err)
	}
	if most := slices.Max(perPlan); fst.Mining.TriePasses != 1 || most >= total/2 {
		t.Fatalf("clean run: %d passes, %d matches, %d of them one plan's", fst.Mining.TriePasses, total, most)
	}

	t.Run("cancel mid-pass", func(t *testing.T) {
		disarm, err := faultinject.Arm(faultinject.Config{CancelAfter: time.Millisecond, StallWorker: 0, StallFor: 5 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		defer disarm()
		tables, st, err := r.MNITablesCtx(context.Background(), g, level)
		if err == nil {
			t.Skip("worker 0 claimed no block; injection not observable on this run")
		}
		if !errors.Is(err, engine.ErrCanceled) {
			t.Fatalf("err = %v, want ErrCanceled", err)
		}
		// The siblings may drain every other block while worker 0 sleeps on
		// its first, so the partial counts can add up to the whole level;
		// they are reported as partial all the same, and no table is built.
		if got := checkMergedPartial(t, tables, st); got > total {
			t.Fatalf("canceled pass delivered %d of %d matches", got, total)
		}
	})

	t.Run("panic at match", func(t *testing.T) {
		// More than any one plan delivers (checked above): only an ordinal
		// counted across plans gets there.
		target := total / 2
		disarm, err := faultinject.Arm(faultinject.Config{PanicAtMatch: target, PanicMessage: "merged boom"})
		if err != nil {
			t.Fatal(err)
		}
		defer disarm()
		tables, st, err := r.MNITablesCtx(context.Background(), g, level)
		var pe *engine.PanicError
		if !errors.As(err, &pe) || fmt.Sprint(pe.Value) != "merged boom" {
			t.Fatalf("err = %v, want the injected *engine.PanicError", err)
		}
		if got := checkMergedPartial(t, tables, st); got < target || got >= total {
			t.Fatalf("pass delivered %d matches, panic armed at %d of %d", got, target, total)
		}
	})

	t.Run("pre-expired", func(t *testing.T) {
		ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Hour))
		defer cancel()
		if tables, _, err := r.MNITablesCtx(ctx, g, level); tables != nil || !errors.Is(err, engine.ErrDeadlineExceeded) {
			t.Fatalf("tables %v, err %v", tables, err)
		}
		// The pass itself: nothing mined, still one (zero) count per plan.
		tr, err := engine.BuildTrie(r.Engine, g, level)
		if err != nil {
			t.Fatal(err)
		}
		sinks := make([]engine.Sink, len(level))
		for i := range sinks {
			sinks[i] = engine.EachMatch(func(int, []uint32) { t.Error("pre-expired pass delivered a match") })
		}
		opts, o := r.Engine.ExecConfig()
		counts, _, err := engine.MatchTrieCtx(ctx, g, tr, sinks, opts, o)
		if !errors.Is(err, engine.ErrDeadlineExceeded) || len(counts) != len(level) || slices.Max(counts) != 0 {
			t.Fatalf("err %v, counts %v", err, counts)
		}
	})
}

// TestMergedMNIWindowPanics interrupts the window route of a merged
// streaming pass — an FSM level, each plan's windows going to per-worker
// MNI tables through bound engine.Sinks — with a panic at match N from the
// fault injector, counted across plans, and with a panic thrown by a
// window consumer itself. Either way the panic value comes back in the
// *engine.PanicError, the per-plan partial counts sum to Stats.Matches, no
// more than the full pass finds, and every match counted was handed to a
// window that returned (the injector's panic fires after its window is
// counted, so that pass counts at least N).
func TestMergedMNIWindowPanics(t *testing.T) {
	leakCheck(t)
	g, level := mergedLevel(t)
	e := peregrine.New(3)
	tr, err := engine.BuildTrie(e, g, level)
	if err != nil {
		t.Fatal(err)
	}
	opts, o := e.ExecConfig()
	// pass runs the level into fresh tables; a window consumer panics with
	// boom once windowPanic windows have returned (0: never). It returns
	// the counts, the stats, the matches of returned windows and the error.
	pass := func(windowPanic int64, boom string) ([]uint64, *engine.Stats, uint64, error) {
		var windows atomic.Int64
		var returned atomic.Uint64
		sinks := make([]engine.Sink, len(level))
		for i, p := range level {
			sinks[i] = func(int) engine.Window {
				tbl := aggr.NewTable(p.N())
				return func(m []uint32, pos int, tail []uint32) {
					if windows.Add(1) == windowPanic {
						panic(boom)
					}
					tbl.InsertTail(m, pos, tail)
					returned.Add(uint64(len(tail)))
				}
			}
		}
		counts, st, err := engine.MatchTrieCtx(context.Background(), g, tr, sinks, opts, o)
		return counts, st, returned.Load(), err
	}
	_, full, delivered, err := pass(0, "")
	if err != nil || delivered != full.Matches {
		t.Fatalf("clean pass: %d matches, %d handed over, err %v", full.Matches, delivered, err)
	}
	for _, tc := range []struct {
		name        string
		injectAt    uint64
		windowPanic int64
	}{{"injected at match N", full.Matches / 2, 0}, {"thrown by a window", 0, int64(full.UDFCalls / 2)}} {
		t.Run(tc.name, func(t *testing.T) {
			boom := "window boom"
			if tc.injectAt > 0 {
				boom = "injected window boom"
				disarm, err := faultinject.Arm(faultinject.Config{PanicAtMatch: tc.injectAt, PanicMessage: boom})
				if err != nil {
					t.Fatal(err)
				}
				defer disarm()
			}
			counts, st, delivered, err := pass(tc.windowPanic, boom)
			var pe *engine.PanicError
			if !errors.As(err, &pe) || fmt.Sprint(pe.Value) != boom {
				t.Fatalf("err = %v, want the %q *engine.PanicError", err, boom)
			}
			var sum uint64
			for _, c := range counts {
				sum += c
			}
			if st == nil || sum != st.Matches || sum > full.Matches || sum != delivered || sum < tc.injectAt {
				t.Fatalf("partial counts sum to %d, Stats %+v; %d handed over to windows that returned, full pass %d, injected at %d", sum, st, delivered, full.Matches, tc.injectAt)
			}
		})
	}
}

// TestFSMMineLifecycleOnMergedRoute arms a panic that fires inside the
// third level's pass (the ordinal runs across passes): fsm.MineCtx must
// return exactly the frequent patterns the two completed levels proved,
// the typed error, and the interrupted level's RunStats with a partial
// count per candidate. A pre-expired context proves nothing.
func TestFSMMineLifecycleOnMergedRoute(t *testing.T) {
	leakCheck(t)
	g, _ := mergedLevel(t)
	opts := fsm.Options{MaxEdges: 3, MinSupport: g.NumVertices() / 10}
	eng := peregrine.New(3)
	want, clean, err := fsm.MineCtx(context.Background(), g, eng, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(clean.Runs) != 3 || clean.Mining.TriePasses != 3 {
		t.Fatalf("clean run: %d levels, %d passes", len(clean.Runs), clean.Mining.TriePasses)
	}
	target := clean.Runs[0].Mining.Matches + clean.Runs[1].Mining.Matches + clean.Runs[2].Mining.Matches/2
	disarm, err := faultinject.Arm(faultinject.Config{PanicAtMatch: target})
	if err != nil {
		t.Fatal(err)
	}
	got, st, err := fsm.MineCtx(context.Background(), g, eng, opts)
	disarm()
	var pe *engine.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *engine.PanicError", err)
	}
	var proven []fsm.Frequent
	for _, f := range want {
		if f.Pattern.EdgeCount() < 3 {
			proven = append(proven, f)
		}
	}
	if len(got) != len(proven) || len(proven) == 0 {
		t.Fatalf("interrupted run returned %d frequent patterns, completed levels proved %d", len(got), len(proven))
	}
	for _, f := range got {
		if f.Pattern.EdgeCount() >= 3 {
			t.Errorf("%v (support %d) comes from the interrupted level", f.Pattern, f.Support)
		}
	}
	if len(st.Runs) != 3 {
		t.Fatalf("stats cover %d levels, want 3", len(st.Runs))
	}
	if last := st.Runs[2]; len(last.Partial) != len(last.Selection.Mine) || last.Phase != core.PhaseMine {
		t.Fatalf("interrupted level: %d partials for %d candidates, phase %q", len(last.Partial), len(last.Selection.Mine), last.Phase)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if got, _, err := fsm.MineCtx(ctx, g, eng, opts); !errors.Is(err, engine.ErrCanceled) || len(got) != 0 {
		t.Fatalf("pre-canceled run: %d frequent patterns, err %v", len(got), err)
	}
}
