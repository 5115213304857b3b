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
//	morphcli explain -json ... > run.json    # EXPLAIN ANALYZE run report
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

	"morphing"
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
	"morphing/internal/server"
)

// runFlight is the flight-recorder policy handed to every Runner,
// assembled in run from $MORPH_FLIGHT_DIR and -slowquery. It stays nil
// when a test calls a command function directly, falling back to
// obs.DefaultFlightPolicy inside the Runner.
var runFlight *obs.FlightPolicy

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run executes one command line and returns its exit status. Every
// command returns here, failed ones included, so the CPU profile, the
// query log and the -listen endpoint are always closed.
func run(args []string, stdout, stderr io.Writer) int {
	gfs := flag.NewFlagSet("morphcli", flag.ContinueOnError)
	gfs.SetOutput(stderr)
	listen := gfs.String("listen", "", "serve /metrics, /vars and /debug/pprof on this address while running")
	cpuProf := gfs.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProf := gfs.String("memprofile", "", "write a heap profile at exit to this file")
	queryLog := gfs.String("querylog", "", "append the structured JSONL query log (run lifecycle events) to this file")
	slowQuery := gfs.Duration("slowquery", 0, "treat runs slower than this wall time as anomalous (flight-recorder trigger; bundles go to $MORPH_FLIGHT_DIR)")
	gfs.Usage = func() {
		usage(stderr)
		gfs.PrintDefaults()
	}
	if err := gfs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if gfs.NArg() < 1 {
		usage(stderr)
		return 2
	}
	stopProf, err := obs.StartProfiles(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintln(stderr, "morphcli:", err)
		return 1
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(stderr, "morphcli: profile:", err)
		}
	}()
	if *queryLog != "" {
		ql, err := obs.OpenEventLog(*queryLog)
		if err != nil {
			fmt.Fprintln(stderr, "morphcli: -querylog:", err)
			return 1
		}
		defer ql.Close()
		obs.SetDefaultEventLog(ql)
		defer obs.SetDefaultEventLog(nil)
	}
	flightPolicy := obs.DefaultFlightPolicy()
	flightPolicy.SlowQuery = *slowQuery
	runFlight = &flightPolicy
	if *listen != "" {
		ln, err := obs.Serve(*listen, obs.DefaultRegistry())
		if err != nil {
			fmt.Fprintln(stderr, "morphcli: -listen:", err)
			return 1
		}
		defer ln.Close()
		fmt.Fprintf(stderr, "observability endpoint on http://%s (/metrics, /vars, /debug/pprof)\n", ln.Addr())
	}
	ctx := context.Background()
	cmd, args := gfs.Arg(0), gfs.Args()[1:]
	switch cmd {
	case "pattern":
		err = cmdPattern(args, stdout)
	case "equation":
		err = cmdEquation(args, stdout)
	case "sdag":
		err = cmdSDAG(args, stdout)
	case "transform":
		err = cmdTransform(ctx, args, stdout, stderr)
	case "count":
		err = cmdCount(ctx, args, stdout, stderr)
	case "convert":
		err = cmdConvert(args, stdout, stderr)
	case "query":
		err = cmdQuery(args, stdout, stderr)
	case "top":
		err = cmdTop(args, stdout, stderr)
	case "explain":
		err = cmdExplain(ctx, args, stdout, stderr)
	case "fig":
		err = cmdFig(ctx, args, stdout, stderr)
	case "names":
		cmdNames(stdout)
	default:
		usage(stderr)
		return 2
	}
	if err != nil {
		fmt.Fprintln(stderr, "morphcli:", err)
		return 1
	}
	return 0
}

func usage(w io.Writer) {
	fmt.Fprintln(w, `usage: morphcli [-listen addr] [-cpuprofile f] [-memprofile f] [-querylog f] [-slowquery d] <pattern|equation|sdag|transform|count|convert|query|top|explain|fig|names> [args]`)
}

func cmdNames(w io.Writer) {
	fmt.Fprintln(w, "figure-1 patterns:")
	for _, np := range pattern.Fig1Patterns() {
		fmt.Fprintf(w, "  %-18s %s\n", np.Name, np.Pattern)
	}
	fmt.Fprintln(w, "evaluation patterns (fig 11a stand-ins):")
	for _, np := range pattern.Fig11Patterns() {
		fmt.Fprintf(w, "  %-18s %s\n", np.Name, np.Pattern)
	}
}

// patternArgs resolves a command's pattern arguments in morphd's grammar
// (server.ResolvePattern): a named pattern, optionally with a :v suffix,
// or codec text.
func patternArgs(cmd string, args []string) ([]*pattern.Pattern, error) {
	if len(args) == 0 {
		return nil, fmt.Errorf("%s needs at least one pattern", cmd)
	}
	queries := make([]*pattern.Pattern, len(args))
	for i, a := range args {
		p, err := server.ResolvePattern(a)
		if err != nil {
			return nil, err
		}
		queries[i] = p
	}
	return queries, nil
}

// graphSource is the graph a pipeline command mines: the dataset recipe
// -graph at -scale or, where the command has -bin, a binary graph file.
type graphSource struct {
	name, bin *string
	scale     *float64
}

// graphFlags registers -graph and -scale on fs, and -bin when withBin.
func graphFlags(fs *flag.FlagSet, withBin bool) graphSource {
	src := graphSource{
		name:  fs.String("graph", "MI", "dataset recipe (MI, MG, PR, OK, FR)"),
		scale: fs.Float64("scale", 0.01, "dataset scale factor"),
		bin:   new(string),
	}
	if withBin {
		src.bin = fs.String("bin", "", "mine a binary graph file (.mcsr, see `morphcli convert`) instead of generating -graph/-scale; mmap-backed when the format allows")
	}
	return src
}

// String names the graph as the commands' first output line does.
func (src graphSource) String() string {
	if *src.bin != "" {
		return "graph " + *src.bin
	}
	return fmt.Sprintf("graph %s at scale %v", *src.name, *src.scale)
}

// load opens or generates the graph; release closes an opened file.
func (src graphSource) load(stderr io.Writer) (g graph.Adjacency, release func(), err error) {
	if *src.bin != "" {
		h, err := graph.Open(*src.bin, graph.OpenOptions{})
		if err != nil {
			return nil, nil, err
		}
		fmt.Fprintf(stderr, "opened %s (mmap=%v)\n", *src.bin, h.Mapped())
		return h.Graph(), func() { h.Close() }, nil
	}
	rec, err := dataset.ByName(*src.name)
	if err != nil {
		return nil, nil, err
	}
	if g, err = rec.Scaled(*src.scale).Generate(); err != nil {
		return nil, nil, err
	}
	return g, func() {}, nil
}

func cmdPattern(args []string, w io.Writer) error {
	if len(args) != 1 {
		return fmt.Errorf("pattern takes exactly one argument")
	}
	p, err := server.ResolvePattern(args[0])
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "pattern:     %s (%s)\n", p, p.Induced())
	fmt.Fprintf(w, "vertices:    %d   edges: %d   anti-edges: %d\n",
		p.N(), p.EdgeCount(), len(p.AntiEdgePairs()))
	fmt.Fprintf(w, "clique:      %v   connected: %v\n", p.IsClique(), p.IsConnected())
	auts := canon.Automorphisms(p)
	fmt.Fprintf(w, "|Aut|:       %d\n", len(auts))
	fmt.Fprintf(w, "canonical:   %s (id %x)\n", canon.Canonicalize(p), canon.StructureID(p))
	conds := plan.SymmetryConditions(p)
	fmt.Fprintf(w, "symmetry:    %d breaking conditions %v\n", len(conds), conds)
	pl, err := plan.Build(p)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "match order: %v\n", pl.Order)
	for i := range pl.Order {
		fmt.Fprintf(w, "  level %d: bind v%-2d intersect=%v difference=%v greater=%v smaller=%v\n",
			i, pl.Order[i], pl.Connect[i], pl.Disconnect[i], pl.Greater[i], pl.Smaller[i])
	}
	return nil
}

func cmdEquation(args []string, w io.Writer) error {
	if len(args) != 1 {
		return fmt.Errorf("equation takes exactly one argument")
	}
	p, err := server.ResolvePattern(args[0])
	if err != nil {
		return err
	}
	eqE, eqV, err := morphing.MorphingEquations(p)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, eqE)
	fmt.Fprintln(w, eqV)
	return nil
}

func cmdSDAG(args []string, w io.Writer) error {
	queries, err := patternArgs("sdag", args)
	if err != nil {
		return err
	}
	d, err := core.BuildSDAG(queries)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "S-DAG: %d structures\n", d.Len())
	for _, n := range d.Nodes() {
		fmt.Fprintf(w, "  %-40s edges=%-2d parents=%d children=%d\n",
			n.Pattern, n.Pattern.EdgeCount(), len(n.Parents), len(n.Children))
	}
	for _, q := range queries {
		if _, err := d.UpSet(d.Node(q)); err != nil {
			fmt.Fprintf(w, "%v: %v — shown as far as it was built; such a pattern is mined as it is\n", q, err)
		}
	}
	return nil
}

func cmdCount(ctx context.Context, args []string, w, stderr io.Writer) error {
	fs := flag.NewFlagSet("count", flag.ContinueOnError)
	src := graphFlags(fs, true)
	shards := fs.Int("shards", 0, "partition the graph and mine each induced shard one at a time; cross-shard edges are dropped, so counts are the paper's §7.4 lower bound (0/1 = off)")
	engineName := fs.String("engine", "peregrine", "matching engine ("+engines.List+")")
	threads := fs.Int("threads", 0, "engine worker threads (0 = GOMAXPROCS)")
	baseline := fs.Bool("baseline", false, "disable morphing and run the queries as-is")
	statsMode := fs.String("stats", "text", "output mode: text, or json for the run report with a registry snapshot")
	timeout := fs.Duration("timeout", 0, "abort the run after this duration, printing partial per-alternative counts (0 = no deadline)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *statsMode != "text" && *statsMode != "json" {
		return fmt.Errorf("-stats must be text or json, got %q", *statsMode)
	}
	queries, err := patternArgs("count", fs.Args())
	if err != nil {
		return err
	}
	eng, err := engines.New(*engineName, *threads, obs.Default())
	if err != nil {
		return err
	}
	g, release, err := src.load(stderr)
	if err != nil {
		return err
	}
	defer release()

	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	r := &core.Runner{Engine: eng, DisableMorphing: *baseline,
		Shards: *shards, Label: "count", Flight: runFlight}
	counts, st, err := r.CountsCtx(ctx, g, queries)
	if err != nil {
		if engine.Interrupted(err) && st != nil {
			if *statsMode == "json" {
				return errors.Join(err, runReport(st, nil).WriteJSON(w))
			}
			rep := report.FromRunStats(st)
			report.WritePartial(w, interruption(err), rep.Phase, rep.Partial)
			if st.Mining != nil {
				fmt.Fprintf(w, "mined %d matches, %d set ops before the abort\n",
					st.Mining.Matches, st.Mining.SetOps)
			}
		}
		return err
	}
	if *statsMode == "json" {
		return runReport(st, counts).WriteJSON(w)
	}

	fmt.Fprintf(w, "%s: %d vertices, %d edges\n", src, g.NumVertices(), g.NumEdges())
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

// interruption names what stopped an interrupted run, as the PARTIAL
// markers of count and fig print it.
func interruption(err error) string {
	switch {
	case errors.Is(err, engine.ErrDeadlineExceeded):
		return "DEADLINE EXCEEDED"
	case errors.Is(err, engine.ErrCanceled):
		return "CANCELED"
	}
	return "RUN INTERRUPTED"
}

// cmdTransform prints the alternative set Algorithm 1 selects for the
// queries on a graph, priced for counting (no per-match aggregation cost)
// as count prices it.
func cmdTransform(ctx context.Context, args []string, w, stderr io.Writer) error {
	fs := flag.NewFlagSet("transform", flag.ContinueOnError)
	src := graphFlags(fs, false)
	if err := fs.Parse(args); err != nil {
		return err
	}
	queries, err := patternArgs("transform", fs.Args())
	if err != nil {
		return err
	}
	g, release, err := src.load(stderr)
	if err != nil {
		return err
	}
	defer release()
	d, err := core.BuildSDAG(queries)
	if err != nil {
		return err
	}
	model := costmodel.NewDefault(graph.Summarize(g))
	sel, err := core.Select(ctx, d, queries, core.DefaultCostFunc(model, 0), core.PolicyAny, false)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s: %d vertices, %d edges\n", src, g.NumVertices(), g.NumEdges())
	fmt.Fprintf(w, "modeled cost: %.0f -> %.0f\n", sel.CostBefore, sel.CostAfter)
	for i, q := range sel.Queries {
		status := "as-is"
		if q.Morphed {
			status = "morphed"
		}
		fmt.Fprintf(w, "query %d: %s  [%s]\n", i, q.Pattern, status)
	}
	fmt.Fprintln(w, "alternative pattern set:")
	for _, c := range sel.Mine {
		fmt.Fprintf(w, "  mine %s\n", c.Pattern)
	}
	return nil
}

// runReport is the run's one JSON document, whichever command writes it:
// its RunReport with the queries' counts, when the run returned them, and
// a snapshot of the process registry attached.
func runReport(st *core.RunStats, counts []uint64) *report.RunReport {
	rep := report.FromRunStats(st)
	rep.SetCounts(counts)
	snap := obs.DefaultRegistry().Snapshot()
	rep.Registry = &snap
	return rep
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
func cmdExplain(ctx context.Context, args []string, w, stderr io.Writer) error {
	fs := flag.NewFlagSet("explain", flag.ContinueOnError)
	src := graphFlags(fs, false)
	engineName := fs.String("engine", "peregrine", "matching engine ("+engines.List+")")
	threads := fs.Int("threads", 0, "engine worker threads (0 = GOMAXPROCS)")
	baseline := fs.Bool("baseline", false, "disable morphing; the report then explains the as-is plan")
	dotOut := fs.String("dot", "", "write the S-DAG with the chosen alternative set as Graphviz DOT to this file")
	jsonMode := fs.Bool("json", false, "print the run report as JSON, registry snapshot included, instead of text")
	if err := fs.Parse(args); err != nil {
		return err
	}
	queries, err := patternArgs("explain", fs.Args())
	if err != nil {
		return err
	}
	eng, err := engines.New(*engineName, *threads, obs.Default())
	if err != nil {
		return err
	}
	g, release, err := src.load(stderr)
	if err != nil {
		return err
	}
	defer release()
	r := &core.Runner{Engine: eng, DisableMorphing: *baseline, Explain: true, Label: "explain", Flight: runFlight}
	counts, st, err := r.CountsCtx(ctx, g, queries)
	if err != nil {
		return err
	}

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
		fmt.Fprintf(stderr, "wrote S-DAG DOT to %s\n", *dotOut)
	}
	rep := runReport(st, counts)
	if *jsonMode {
		return rep.WriteJSON(w)
	}
	return rep.WriteText(w)
}
