// Command morphcli inspects the morphing machinery interactively:
// patterns, their matching plans, their S-DAGs, the Fig. 7 conversion
// identities, the alternative set the cost model would select for a
// query on a given dataset, and full pipeline executions.
//
// Usage:
//
//	morphcli pattern 4-cycle                 # structure, symmetries, plan
//	morphcli equation tailed-triangle        # the SM-E / SM-V identities
//	morphcli sdag p4 p5                      # superpattern lattice
//	morphcli transform -graph MI -scale .01 4-cycle:v 4-star:v
//	morphcli count -graph MI -engine peregrine 4-cycle:v 4-star:v
//	morphcli count -stats json 4-clique      # the run report as JSON
//	morphcli count -report run.json ...      # EXPLAIN ANALYZE run report
//	morphcli convert -in edges.txt -out g.mcsr -renumber degree
//	                                         # edge list -> binary graph
//	morphcli count -bin g.mcsr -shards 8 triangle
//	                                         # mmap the file, mine shard by shard
//	morphcli top -addr http://host:7421      # live morphd dashboard
//	morphcli explain 4-cycle:v 4-star:v      # plan + calibration report
//	morphcli explain -dot sdag.dot ...       # Graphviz S-DAG export
//	morphcli -listen :8080 count ...         # live /metrics, /vars, pprof
//
// Patterns are named (see `morphcli names`) or written in the codec form
// "n=4;e=0-1,1-2,2-3,3-0;v"; a ":v" suffix on a name selects the
// vertex-induced variant.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"morphing/internal/canon"
	"morphing/internal/core"
	"morphing/internal/costmodel"
	"morphing/internal/dataset"
	"morphing/internal/engine"
	"morphing/internal/engines"
	"morphing/internal/graph"
	"morphing/internal/obs"
	"morphing/internal/pattern"
	"morphing/internal/plan"
	"morphing/internal/report"
)

// runFlight is the flight-recorder policy handed to every Runner,
// assembled in main from -flightdir and -slowquery. It stays nil when
// command functions run without main (tests), falling back to
// obs.DefaultFlightPolicy inside the Runner.
var runFlight *obs.FlightPolicy

func main() {
	listen := flag.String("listen", "", "serve /metrics, /vars and /debug/pprof on this address while running")
	cpuProf := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProf := flag.String("memprofile", "", "write a heap profile at exit to this file")
	queryLog := flag.String("querylog", "", "append the structured JSONL query log (run lifecycle events) to this file")
	flightDir := flag.String("flightdir", "", "dump flight-recorder bundles for anomalous runs into this directory (default $MORPH_FLIGHT_DIR)")
	slowQuery := flag.Duration("slowquery", 0, "treat runs slower than this wall time as anomalous (flight-recorder trigger)")
	flag.Usage = usage
	flag.Parse()
	if flag.NArg() < 1 {
		usage()
		os.Exit(2)
	}
	stopProf, err := obs.StartProfiles(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintln(os.Stderr, "morphcli:", err)
		os.Exit(1)
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, "morphcli: profile:", err)
		}
	}()
	if *queryLog != "" {
		ql, err := obs.OpenEventLog(*queryLog)
		if err != nil {
			fmt.Fprintln(os.Stderr, "morphcli: -querylog:", err)
			os.Exit(1)
		}
		defer ql.Close()
		obs.SetDefaultEventLog(ql)
	}
	if *flightDir != "" {
		os.Setenv(obs.EnvFlightDir, *flightDir)
	}
	flightPolicy := obs.DefaultFlightPolicy()
	flightPolicy.SlowQuery = *slowQuery
	runFlight = &flightPolicy
	if *listen != "" {
		ln, err := obs.Serve(*listen, obs.DefaultRegistry())
		if err != nil {
			fmt.Fprintln(os.Stderr, "morphcli: -listen:", err)
			os.Exit(1)
		}
		defer ln.Close()
		fmt.Fprintf(os.Stderr, "observability endpoint on http://%s (/metrics, /vars, /debug/pprof)\n", ln.Addr())
	}
	cmd, args := flag.Arg(0), flag.Args()[1:]
	switch cmd {
	case "pattern":
		err = cmdPattern(args)
	case "equation":
		err = cmdEquation(args)
	case "sdag":
		err = cmdSDAG(args)
	case "transform":
		err = cmdTransform(args)
	case "count":
		err = cmdCount(context.Background(), args, os.Stdout)
	case "convert":
		err = cmdConvert(args)
	case "query":
		err = cmdQuery(args)
	case "top":
		err = cmdTop(args)
	case "explain":
		err = cmdExplain(context.Background(), args, os.Stdout)
	case "names":
		cmdNames()
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "morphcli:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: morphcli [-listen addr] <pattern|equation|sdag|transform|count|convert|query|top|explain|names> [args]`)
}

func cmdNames() {
	fmt.Println("figure-1 patterns:")
	for _, np := range pattern.Fig1Patterns() {
		fmt.Printf("  %-18s %s\n", np.Name, np.Pattern)
	}
	fmt.Println("evaluation patterns (fig 11a stand-ins):")
	for _, np := range pattern.Fig11Patterns() {
		fmt.Printf("  %-18s %s\n", np.Name, np.Pattern)
	}
}

// resolve parses a pattern argument: a known name (optionally with a :v
// suffix) or codec text.
func resolve(arg string) (*pattern.Pattern, error) {
	vertexInduced := false
	name := arg
	if strings.HasSuffix(arg, ":v") {
		vertexInduced = true
		name = strings.TrimSuffix(arg, ":v")
	}
	p, err := pattern.ByName(name)
	if err != nil {
		p, err = pattern.Parse(arg)
		if err != nil {
			return nil, fmt.Errorf("%q is neither a named pattern nor codec text", arg)
		}
		return p, nil
	}
	if vertexInduced {
		p = p.AsVertexInduced()
	}
	return p, nil
}

func cmdPattern(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("pattern takes exactly one argument")
	}
	p, err := resolve(args[0])
	if err != nil {
		return err
	}
	fmt.Printf("pattern:     %s (%s)\n", p, p.Induced())
	fmt.Printf("vertices:    %d   edges: %d   anti-edges: %d\n",
		p.N(), p.EdgeCount(), len(p.AntiEdgePairs()))
	fmt.Printf("clique:      %v   connected: %v\n", p.IsClique(), p.IsConnected())
	auts := canon.Automorphisms(p)
	fmt.Printf("|Aut|:       %d\n", len(auts))
	fmt.Printf("canonical:   %s (id %x)\n", canon.Canonicalize(p), canon.StructureID(p))
	conds := plan.SymmetryConditions(p)
	fmt.Printf("symmetry:    %d breaking conditions %v\n", len(conds), conds)
	pl, err := plan.Build(p)
	if err != nil {
		return err
	}
	fmt.Printf("match order: %v\n", pl.Order)
	for i := range pl.Order {
		fmt.Printf("  level %d: bind v%-2d intersect=%v difference=%v greater=%v smaller=%v\n",
			i, pl.Order[i], pl.Connect[i], pl.Disconnect[i], pl.Greater[i], pl.Smaller[i])
	}
	return nil
}

func cmdEquation(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("equation takes exactly one argument")
	}
	p, err := resolve(args[0])
	if err != nil {
		return err
	}
	d, err := core.BuildSDAG([]*pattern.Pattern{p})
	if err != nil {
		return err
	}
	eqE, err := core.EdgeInducedEquation(d, p)
	if err != nil {
		return err
	}
	eqV, err := core.VertexInducedEquation(d, p)
	if err != nil {
		return err
	}
	fmt.Println(eqE)
	fmt.Println(eqV)
	return nil
}

func cmdSDAG(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("sdag needs at least one pattern")
	}
	queries := make([]*pattern.Pattern, 0, len(args))
	for _, a := range args {
		p, err := resolve(a)
		if err != nil {
			return err
		}
		queries = append(queries, p)
	}
	d, err := core.BuildSDAG(queries)
	if err != nil {
		return err
	}
	fmt.Printf("S-DAG: %d structures\n", d.Len())
	for _, n := range d.Nodes() {
		fmt.Printf("  %-40s edges=%-2d parents=%d children=%d\n",
			n.Pattern, n.Pattern.EdgeCount(), len(n.Parents), len(n.Children))
	}
	for _, q := range queries {
		if _, err := d.UpSet(d.Node(q)); err != nil {
			fmt.Printf("%v: %v — shown as far as it was built; such a pattern is mined as it is\n", q, err)
		}
	}
	return nil
}

func cmdCount(ctx context.Context, args []string, w io.Writer) error {
	fs := flag.NewFlagSet("count", flag.ContinueOnError)
	graphName := fs.String("graph", "MI", "dataset recipe (MI, MG, PR, OK, FR)")
	scale := fs.Float64("scale", 0.01, "dataset scale factor")
	binPath := fs.String("bin", "", "mine a binary graph file (.mcsr, see `morphcli convert`) instead of generating -graph/-scale; mmap-backed when the format allows")
	shards := fs.Int("shards", 0, "partition the graph and mine each induced shard one at a time; cross-shard edges are dropped, so counts are the paper's §7.4 lower bound (0/1 = off)")
	engineName := fs.String("engine", "peregrine", "matching engine ("+engines.List+")")
	threads := fs.Int("threads", 0, "engine worker threads (0 = GOMAXPROCS)")
	baseline := fs.Bool("baseline", false, "disable morphing and run the queries as-is")
	statsMode := fs.String("stats", "text", "output mode: text, or json for the run report with a registry snapshot")
	progress := fs.Bool("progress", false, "report live matches/sec to stderr")
	timeout := fs.Duration("timeout", 0, "abort the run after this duration, printing partial per-alternative counts (0 = no deadline)")
	reportOut := fs.String("report", "", "write a structured run report (JSON) to this file; enables explain mode (per-pattern mining + calibration)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		return fmt.Errorf("count needs at least one pattern")
	}
	if *statsMode != "text" && *statsMode != "json" {
		return fmt.Errorf("-stats must be text or json, got %q", *statsMode)
	}
	queries := make([]*pattern.Pattern, 0, fs.NArg())
	for _, a := range fs.Args() {
		p, err := resolve(a)
		if err != nil {
			return err
		}
		queries = append(queries, p)
	}

	eng, err := engines.New(*engineName, *threads, obs.Default())
	if err != nil {
		return err
	}
	var g graph.Adjacency
	if *binPath != "" {
		h, err := graph.Open(*binPath, graph.OpenOptions{})
		if err != nil {
			return err
		}
		defer h.Close()
		g = h.Graph()
		fmt.Fprintf(os.Stderr, "opened %s (mmap=%v)\n", *binPath, h.Mapped())
	} else {
		rec, err := dataset.ByName(*graphName)
		if err != nil {
			return err
		}
		g, err = rec.Scaled(*scale).Generate()
		if err != nil {
			return err
		}
	}

	var prog *obs.Progress
	if *progress {
		prog = obs.StartProgress(os.Stderr, "count",
			obs.DefaultRegistry().Counter(engine.MetricMatches))
	}
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	r := &core.Runner{Engine: eng, DisableMorphing: *baseline, Explain: *reportOut != "",
		RunOptions: core.RunOptions{Shards: *shards}, Label: "count", Flight: runFlight}
	counts, st, err := r.CountsCtx(ctx, g, queries)
	prog.Stop()
	if err != nil {
		if engine.Interrupted(err) && st != nil {
			if *statsMode == "json" {
				return errors.Join(err, runReport(st, nil).WriteJSON(w))
			}
			printPartial(w, st, err)
		}
		return err
	}

	if *reportOut != "" {
		if err := writeRunReport(*reportOut, st, counts); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote run report to %s\n", *reportOut)
	}
	if *statsMode == "json" {
		return runReport(st, counts).WriteJSON(w)
	}

	if *binPath != "" {
		fmt.Fprintf(w, "graph %s: %d vertices, %d edges\n",
			*binPath, g.NumVertices(), g.NumEdges())
	} else {
		fmt.Fprintf(w, "graph %s at scale %v: %d vertices, %d edges\n",
			*graphName, *scale, g.NumVertices(), g.NumEdges())
	}
	fmt.Fprintf(w, "engine %s, morphing %v\n", eng.Name(), !*baseline)
	if st.Shards > 0 {
		fmt.Fprintf(w, "sharded over %d partitions (cross-shard matches dropped; counts are lower bounds)\n", st.Shards)
	}
	for i, q := range st.Selection.Queries {
		status := "as-is"
		if q.Morphed {
			status = "morphed"
		}
		fmt.Fprintf(w, "%-40s %12d  [%s]\n", q.Pattern.String(), counts[i], status)
	}
	fmt.Fprintf(w, "transform %v  mine %v  convert %v  (%d matches, %d set ops)\n",
		st.Transform, st.Mining.TotalTime, st.Convert,
		st.Mining.Matches, st.Mining.SetOps)
	return nil
}

// printPartial reports an interrupted run: which deadline/cancellation
// fired, the pipeline phase it stopped in, and the per-alternative
// partial counts mined before the abort (query-level results cannot be
// soundly converted from an incomplete mined set).
func printPartial(w io.Writer, st *core.RunStats, err error) {
	marker := "RUN INTERRUPTED"
	switch {
	case errors.Is(err, engine.ErrDeadlineExceeded):
		marker = "DEADLINE EXCEEDED"
	case errors.Is(err, engine.ErrCanceled):
		marker = "CANCELED"
	}
	fmt.Fprintf(w, "*** %s — results below are PARTIAL (stopped in phase %q) ***\n", marker, st.Phase)
	for _, p := range st.Partial {
		fmt.Fprintf(w, "%-40s %12d  [partial, mined alternative]\n", p.Pattern.String(), p.Count)
	}
	if st.Mining != nil {
		fmt.Fprintf(w, "mined %d matches, %d set ops before the abort\n",
			st.Mining.Matches, st.Mining.SetOps)
	}
}

func cmdTransform(args []string) error {
	fs := flag.NewFlagSet("transform", flag.ContinueOnError)
	graphName := fs.String("graph", "MI", "dataset recipe (MI, MG, PR, OK, FR)")
	scale := fs.Float64("scale", 0.01, "dataset scale factor")
	perMatch := fs.Float64("permatch", 0, "aggregation cost per match for the model")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		return fmt.Errorf("transform needs at least one pattern")
	}
	queries := make([]*pattern.Pattern, 0, fs.NArg())
	for _, a := range fs.Args() {
		p, err := resolve(a)
		if err != nil {
			return err
		}
		queries = append(queries, p)
	}
	r, err := dataset.ByName(*graphName)
	if err != nil {
		return err
	}
	g, err := r.Scaled(*scale).Generate()
	if err != nil {
		return err
	}
	d, err := core.BuildSDAG(queries)
	if err != nil {
		return err
	}
	model := costmodel.NewDefault(graph.Summarize(g))
	sel, err := core.Select(context.Background(), d, queries, core.DefaultCostFunc(model, *perMatch), core.PolicyAny, core.SelectOptions{})
	if err != nil {
		return err
	}
	fmt.Printf("graph %s at scale %v: %d vertices, %d edges\n",
		*graphName, *scale, g.NumVertices(), g.NumEdges())
	fmt.Printf("modeled cost: %.0f -> %.0f\n", sel.CostBefore, sel.CostAfter)
	for i, q := range sel.Queries {
		status := "as-is"
		if q.Morphed {
			status = "morphed"
		}
		fmt.Printf("query %d: %s  [%s]\n", i, q.Pattern, status)
	}
	fmt.Println("alternative pattern set:")
	for _, c := range sel.Mine {
		fmt.Printf("  mine %s\n", c.Pattern)
	}
	return nil
}

// runReport is the run's one JSON document: its RunReport with the
// queries' counts, when the run returned them, and a snapshot of the
// process registry attached.
func runReport(st *core.RunStats, counts []uint64) *report.RunReport {
	rep := report.FromRunStats(st)
	rep.SetCounts(counts)
	snap := obs.DefaultRegistry().Snapshot()
	rep.Registry = &snap
	return rep
}

// writeRunReport writes runReport(st, counts) as JSON to path.
func writeRunReport(path string, st *core.RunStats, counts []uint64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = runReport(st, counts).WriteJSON(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// cmdExplain runs the full pipeline in explain mode and prints the
// EXPLAIN/calibration report: the queries and their Fig. 7 rewrites,
// every candidate alternative set Algorithm 1 scored (with the cost
// model's estimates, rejected candidates included), and the measured
// per-pattern matches, per-level selectivity and worker skew.
//
// The execution it reports is the one a plain run takes — one merged pass
// over the winner set — so per-pattern counts are exact and there is no
// per-pattern wall time.
func cmdExplain(ctx context.Context, args []string, w io.Writer) error {
	fs := flag.NewFlagSet("explain", flag.ContinueOnError)
	graphName := fs.String("graph", "MI", "dataset recipe (MI, MG, PR, OK, FR)")
	scale := fs.Float64("scale", 0.01, "dataset scale factor")
	engineName := fs.String("engine", "peregrine", "matching engine ("+engines.List+")")
	threads := fs.Int("threads", 0, "engine worker threads (0 = GOMAXPROCS)")
	baseline := fs.Bool("baseline", false, "disable morphing; the report then explains the as-is plan")
	dotOut := fs.String("dot", "", "write the S-DAG with the chosen alternative set as Graphviz DOT to this file")
	reportOut := fs.String("report", "", "also write the report as JSON to this file")
	jsonMode := fs.Bool("json", false, "print the report as JSON instead of text")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		return fmt.Errorf("explain needs at least one pattern")
	}
	queries := make([]*pattern.Pattern, 0, fs.NArg())
	for _, a := range fs.Args() {
		p, err := resolve(a)
		if err != nil {
			return err
		}
		queries = append(queries, p)
	}
	eng, err := engines.New(*engineName, *threads, obs.Default())
	if err != nil {
		return err
	}
	rec, err := dataset.ByName(*graphName)
	if err != nil {
		return err
	}
	g, err := rec.Scaled(*scale).Generate()
	if err != nil {
		return err
	}
	r := &core.Runner{Engine: eng, DisableMorphing: *baseline, Explain: true, Label: "explain", Flight: runFlight}
	counts, st, err := r.CountsCtx(ctx, g, queries)
	if err != nil {
		return err
	}

	rep := report.FromRunStats(st)
	rep.SetCounts(counts)
	if *dotOut != "" {
		if st.Selection == nil || st.Selection.SDAG == nil {
			return fmt.Errorf("-dot: no S-DAG to export (baseline runs mine the queries as-is)")
		}
		f, ferr := os.Create(*dotOut)
		if ferr != nil {
			return ferr
		}
		ferr = st.Selection.SDAG.WriteDOT(f, st.Selection)
		if cerr := f.Close(); ferr == nil {
			ferr = cerr
		}
		if ferr != nil {
			return ferr
		}
		fmt.Fprintf(os.Stderr, "wrote S-DAG DOT to %s\n", *dotOut)
	}
	if *reportOut != "" {
		if err := writeRunReport(*reportOut, st, counts); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote run report to %s\n", *reportOut)
	}
	if *jsonMode {
		return rep.WriteJSON(w)
	}
	return rep.WriteText(w)
}
