package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"morphing/internal/apps/sc"
	"morphing/internal/dataset"
	"morphing/internal/graph"
	"morphing/internal/peregrine"
	"morphing/internal/server"
)

// buildMorphd compiles cmd/morphd into the build directory. It runs on
// every serve run — a no-op when nothing changed — so that a stale
// daemon is never measured; it is not part of set-up time.
func buildMorphd(rc *runConfig) (string, error) {
	bin := filepath.Join(rc.outDir, "bin", "morphd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/morphd")
	cmd.Dir = rc.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/morphd: %v\n%s", err, out)
	}
	return bin, nil
}

// daemon is a running morphd child.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	stderr bytes.Buffer
	exited chan struct{}
}

// startDaemon spawns morphd with its default flags but the listen
// address — a free loopback port — and the graph size, and returns once
// /healthz says ok.
func startDaemon(ctx context.Context, bin string, rc *runConfig) (*daemon, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()
	d := &daemon{base: "http://" + addr, exited: make(chan struct{})}
	d.cmd = exec.Command(bin, "-listen", addr, "-graph", rc.p.recipe, "-scale", fmt.Sprint(rc.p.size(rc.quick)))
	d.cmd.Stderr = &d.stderr
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		d.cmd.Wait()
		close(d.exited)
	}()
	c := &server.Client{Base: d.base}
	deadline := time.Now().Add(30 * time.Second)
	for {
		if h, err := c.Health(ctx); err == nil && h.Status == "ok" {
			return d, nil
		}
		select {
		case <-d.exited:
			return nil, fmt.Errorf("morphd exited before it was healthy: %s", d.stderr.String())
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("morphd not healthy after 30 s: %s", d.stderr.String())
		}
	}
}

// stop reads the child's peak resident set, sends SIGTERM and reaps it
// (killing it if the drain hangs).
func (d *daemon) stop() float64 {
	if d == nil {
		return 0
	}
	rss := peakRSSMiB(d.cmd.Process.Pid, nil)
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(20 * time.Second):
		d.cmd.Process.Kill()
		<-d.exited
	}
	if rss == 0 {
		if ru, ok := d.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			rss = peakRSSMiB(0, ru)
		}
	}
	return rss
}

// serveExpected computes every pool query's counts on the graph morphd
// generates for itself (the recipe as it stands: morphd takes no seed),
// by the direct route.
func serveExpected(ctx context.Context, rc *runConfig) (*graph.Graph, [][]uint64, answer, error) {
	rec, err := dataset.ByName(rc.p.recipe)
	if err != nil {
		return nil, nil, nil, err
	}
	g, err := rec.Scaled(rc.p.size(rc.quick)).Generate()
	if err != nil {
		return nil, nil, nil, err
	}
	want := make([][]uint64, len(servePool))
	flat := answer{}
	for i, names := range servePool {
		ps, err := resolve(names)
		if err != nil {
			return nil, nil, nil, err
		}
		if want[i], _, err = sc.CountCtx(ctx, g, ps, peregrine.New(0), false); err != nil {
			return nil, nil, nil, err
		}
		for j, p := range ps {
			flat[fmt.Sprintf("%d/%s", i, p)] = want[i][j]
		}
	}
	return g, want, flat, nil
}

// loadClient is one closed-loop caller with one keep-alive connection.
type loadClient struct {
	c    *server.Client
	rng  *rand.Rand
	deck []int // the rest of the current pass over the pool
	ops  []op
	fail []string
	sent int
}

func newLoadClient(base string, id int, seed int64) *loadClient {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	return &loadClient{
		c:   &server.Client{Base: base, Token: fmt.Sprintf("bench-%d", id), HTTP: &http.Client{Transport: tr}, Retries: 0},
		rng: rand.New(rand.NewSource(seed*serveClients + int64(id))),
	}
}

// next draws the client's next pool query: each client walks seeded
// permutations of the whole pool, so that any stretch of the run holds
// the same mix of cheap and dear queries whatever the seed.
func (lc *loadClient) next() int {
	if len(lc.deck) == 0 {
		lc.deck = lc.rng.Perm(len(servePool))
	}
	i := lc.deck[0]
	lc.deck = lc.deck[1:]
	return i
}

// request sends pool query i and checks the reply against want: an
// error, a refusal or a wrong count fails the operation.
func (lc *loadClient) request(ctx context.Context, i int, noCache bool, want [][]uint64) bool {
	lc.sent++
	res, err := lc.c.Query(ctx, server.QueryRequest{Patterns: servePool[i], NoCache: noCache})
	switch {
	case err != nil:
		lc.fail = append(lc.fail, err.Error())
	case len(res.Counts) != len(want[i]):
		lc.fail = append(lc.fail, fmt.Sprintf("query %d: %d counts, want %d", i, len(res.Counts), len(want[i])))
	default:
		for j, c := range res.Counts {
			if c != want[i][j] {
				lc.fail = append(lc.fail, fmt.Sprintf("query %d pattern %d: count %d, want %d", i, j, c, want[i][j]))
				return false
			}
		}
		return true
	}
	return false
}

// load drives the daemon for the run's seconds from serveClients closed
// loops, each drawing its requests from the pool by seed (see next). The
// clients stop together at every segment's end for the calibration.
func load(ctx context.Context, base string, rc *runConfig, want [][]uint64, tr *tracer) ([]*loadClient, []segment) {
	clients := make([]*loadClient, serveClients)
	for i := range clients {
		clients[i] = newLoadClient(base, i, rc.seed)
	}
	segs := phase(rc.seconds, func(done func() bool) []op {
		var wg sync.WaitGroup
		t0 := time.Now()
		for id, lc := range clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for !done() {
					i := lc.next()
					t := time.Since(t0)
					ok := lc.request(ctx, i, rc.p.noCache, want)
					e := time.Since(t0)
					lc.ops = append(lc.ops, op{start: t, end: e, ok: ok})
					if tr != nil && lc.sent <= 2000 { // the trace file stays loadable
						off := t0.Sub(tr.epoch)
						tr.add(span{name: "request/" + strings.Join(servePool[i], ","), parent: -1, query: lc.sent*serveClients + id, lane: id, start: off + t, end: off + e})
					}
				}
			}()
		}
		wg.Wait()
		var ops []op
		for _, lc := range clients {
			ops = append(ops, lc.ops...)
			lc.ops = lc.ops[:0]
		}
		return ops
	})
	return clients, segs
}

// collect folds the clients' request counts and failures into the
// outcome.
func collect(out *outcome, clients []*loadClient) {
	for _, lc := range clients {
		out.attempted += lc.sent
		for _, f := range lc.fail {
			out.fail(f)
		}
	}
}

// warmPass sends every pool query once from one client: on serve-hit it
// fills the cache, on serve-miss it is the warm-up.
func warmPass(ctx context.Context, out *outcome, base string, rc *runConfig, want [][]uint64) {
	lc := newLoadClient(base, 0, rc.seed)
	for i := range servePool {
		lc.request(ctx, i, rc.p.noCache, want)
	}
	collect(out, []*loadClient{lc})
}

// runServe is one contract run of a serve workload.
func runServe(ctx context.Context, rc *runConfig) (*outcome, error) {
	out := newOutcome()
	bin, err := buildMorphd(rc)
	if err != nil {
		return nil, err
	}
	g, want, flat, err := serveExpected(ctx, rc)
	if err != nil {
		return nil, fmt.Errorf("reference run: %w", err)
	}
	out.attempted++
	if gold, ok := rc.gold.lookup(rc.name, rc.quick); !ok || !flat.equal(gold) {
		out.fail("reference answers differ from the golden file")
	}

	// Set-up, several times over: spawn, healthy, one pass over the pool.
	var d *daemon
	defer func() { d.stop() }()
	var setups, rawSetups []float64
	for i := 0; i < rc.setupReps; i++ {
		d.stop()
		ref, raw := scaled(func() {
			if d, err = startDaemon(ctx, bin, rc); err == nil {
				warmPass(ctx, out, d.base, rc, want)
			}
		})
		if err != nil {
			return nil, err
		}
		setups, rawSetups = append(setups, ref), append(rawSetups, raw)
	}

	if rc.trace {
		err := traceServe(ctx, rc, out, d, g, want)
		return out, err
	}
	clients, segs := load(ctx, d.base, rc, want, nil)
	collect(out, clients)
	out.summarise(segs, serveClients)
	out.set("setup_s", median(setups), len(setups))
	out.rawSetup = median(rawSetups)
	rss := d.stop()
	d = nil
	out.set("peak_rss_mb", rss, 1)
	return out, nil
}

// traceServe is the traced pass of a serve workload: the daemon's own
// counters before and after the load, and the client's view of it.
func traceServe(ctx context.Context, rc *runConfig, out *outcome, d *daemon, g *graph.Graph, want [][]uint64) error {
	tr := newTracer()
	before, err := scrape(d.base)
	if err != nil {
		return err
	}
	clients, segs := load(ctx, d.base, rc, want, tr)
	after, err := scrape(d.base)
	if err != nil {
		return err
	}
	collect(out, clients)
	var ops []op
	for _, s := range segs {
		ops = append(ops, s.ops...)
	}
	delta := func(name string) float64 { return after[name] - before[name] }
	n := float64(len(ops))
	var lat []float64
	var sum float64
	for _, o := range ops {
		lat = append(lat, o.ms())
		sum += o.ms()
	}
	clientMean := sum / n
	perReq := func(name string) float64 { return delta(name) / n }
	phaseMS := func(phase string) float64 {
		if c := delta("server_phase_" + phase + "_ns_count"); c > 0 {
			return delta("server_phase_"+phase+"_ns_sum") / c / 1e6
		}
		return 0
	}
	m := out.layer
	m["server.admit_mean_ms"] = phaseMS("admit")
	m["server.queue_mean_ms"] = phaseMS("queue")
	m["server.mine_mean_ms"] = perReq("server_phase_mine_ns_sum") / 1e6
	m["server.total_mean_ms"] = phaseMS("total")
	m["server.overhead_mean_ms"] = clientMean - m["server.mine_mean_ms"]
	if lookups := delta("server_cache_hits_total") + delta("server_cache_misses_total"); lookups > 0 {
		m["server.cache_hit_share"] = delta("server_cache_hits_total") / lookups
	}
	m["server.coalesced"] = delta("server_coalesced_total")
	m["server.errors"] = delta("server_query_errors_total")
	for name := range after {
		if strings.HasPrefix(name, "server_reject_") || name == "server_admission_rejects_total" {
			m["server.rejects"] += delta(name)
		}
	}
	m["client.latency_p99_ms"] = quantile(sortedCopy(lat), 0.99)
	// The share of what the client waits that the daemon's own clock does
	// not cover: HTTP, serialisation, the client's parse.
	m["trace.unattributed_share"] = max(0, (clientMean-m["server.total_mean_ms"])/clientMean)

	// Per request, from the daemon's run and engine counters; morphd
	// exposes the transform as one counter, reported as core.select_s.
	m["core.select_s"] = perReq("run_transform_time_ns_total") / 1e9
	m["core.convert_s"] = perReq("run_convert_time_ns_total") / 1e9
	m["engine.mine_s"] = perReq("engine_run_time_ns_total") / 1e9
	m["engine.matches"] = perReq("engine_matches_total")
	m["engine.materialized"] = perReq("engine_materialized_total")
	m["engine.udf_calls"] = perReq("engine_udf_calls_total")
	m["engine.branches"] = perReq("engine_branches_total")
	m["engine.tail_steals"] = perReq("engine_tail_steals_total")
	m["engine.trie_passes"] = perReq("engine_trie_patterns_per_pass_count")
	m["setops.ops"] = perReq("engine_set_ops_total")
	m["setops.elems"] = perReq("engine_set_elems_total")
	m["setops.written_elems"] = perReq("engine_set_written_elems_total")
	m["setops.merge_ops"] = perReq("engine_set_merge_ops_total")
	m["setops.gallop_ops"] = perReq("engine_set_gallop_ops_total")
	m["setops.bitset_ops"] = perReq("engine_set_bitset_ops_total")
	m["setops.unrolled_ops"] = perReq("engine_set_unrolled_ops_total")
	m["setops.tile_ops"] = perReq("engine_set_tile_ops_total")
	m["setops.countonly_ops"] = perReq("engine_set_countonly_ops_total")
	m["graph.decode_rows"] = perReq("graph_decode_rows_total")
	m["graph.decode_elems"] = perReq("graph_decode_elems_total")
	m["go.alloc_mb_per_query"] = perReq("go_TotalAlloc") / (1 << 20)
	m["go.allocs_per_query"] = perReq("go_Mallocs")
	m["go.gc_cycles_per_query"] = perReq("go_NumGC")
	setopsProbe(m, g, rc.seed)
	out.samples = len(ops)
	return tr.writeChrome(filepath.Join(rc.outDir, "trace-"+rc.name+".json"))
}

// scrape reads the daemon's /metrics (counters, histogram sums and
// counts) and the Go runtime's totals, which morphd only exposes as the
// MemStats comment block of /debug/pprof/heap?debug=1 (as go_<field>).
func scrape(base string) (map[string]float64, error) {
	vals := map[string]float64{}
	get := func(path string, line func(string)) error {
		resp, err := http.Get(base + path)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			io.Copy(io.Discard, resp.Body)
			return fmt.Errorf("GET %s: %s", path, resp.Status)
		}
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 64*1024), 16<<20)
		for sc.Scan() {
			line(sc.Text())
		}
		return sc.Err()
	}
	err := get("/metrics", func(l string) {
		if strings.HasPrefix(l, "#") || strings.Contains(l, "{") {
			return
		}
		if name, v, ok := strings.Cut(l, " "); ok {
			if f, err := strconv.ParseFloat(v, 64); err == nil {
				vals[name] = f
			}
		}
	})
	if err != nil {
		return nil, err
	}
	err = get("/debug/pprof/heap?debug=1", func(l string) {
		if rest, ok := strings.CutPrefix(l, "# "); ok {
			if name, v, ok := strings.Cut(rest, " = "); ok {
				if f, err := strconv.ParseFloat(v, 64); err == nil {
					vals["go_"+name] = f
				}
			}
		}
	})
	return vals, err
}
