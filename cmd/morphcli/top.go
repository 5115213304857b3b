package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"morphing/internal/core"
	"morphing/internal/obs"
	"morphing/internal/server"
)

// cmdTop is the live operational dashboard: it polls a running morphd's
// /timeseries, /slo and /healthz endpoints and renders qps, queue
// depth, per-phase latency sparklines, error-budget burn rate, cache
// hit ratio and decode throughput in place.
func cmdTop(args []string, w, stderr io.Writer) error {
	fs := flag.NewFlagSet("top", flag.ContinueOnError)
	addr := fs.String("addr", "http://127.0.0.1:7421", "morphd base URL")
	interval := fs.Duration("interval", time.Second, "poll/redraw period")
	once := fs.Bool("once", false, "render a single frame and exit (no screen control; for scripts)")
	width := fs.Int("width", 48, "sparkline width in cells")
	fs.Usage = func() {
		fmt.Fprintln(stderr, `usage: morphcli top [-addr url] [-interval 1s] [-once]

Live dashboard over a running morphd. Requires the server's History
sampler (on by default; morphd -sample-interval controls it).`)
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	return runTop(ctx, w, topOptions{
		Addr:     *addr,
		Interval: *interval,
		Once:     *once,
		Width:    *width,
	})
}

type topOptions struct {
	Addr     string
	Interval time.Duration
	Once     bool
	Width    int
}

// topFrame is one poll's worth of server state.
type topFrame struct {
	At     time.Time
	Health server.Health
	SLO    server.SLOStatus
	Series obs.HistorySnapshot
}

// topClient fetches dashboard frames from a morphd.
type topClient struct {
	base string
	hc   *http.Client
	n    int // points per series to request
}

func (c *topClient) getJSON(ctx context.Context, path string, into any) error {
	req, err := http.NewRequestWithContext(ctx, "GET", c.base+path, nil)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(into)
}

func (c *topClient) fetch(ctx context.Context) (*topFrame, error) {
	f := &topFrame{At: time.Now()}
	if err := c.getJSON(ctx, "/healthz", &f.Health); err != nil {
		return nil, err
	}
	if err := c.getJSON(ctx, "/slo", &f.SLO); err != nil {
		return nil, err
	}
	if err := c.getJSON(ctx, fmt.Sprintf("/timeseries?n=%d", c.n), &f.Series); err != nil {
		return nil, err
	}
	return f, nil
}

// runTop is the poll/render loop, split from cmdTop so tests can drive
// it against an httptest server and verify it stops (and stops cleanly)
// when the context does.
func runTop(ctx context.Context, w io.Writer, opt topOptions) error {
	if opt.Interval <= 0 {
		opt.Interval = time.Second
	}
	if opt.Width <= 0 {
		opt.Width = 48
	}
	c := &topClient{
		base: strings.TrimSuffix(opt.Addr, "/"),
		hc:   &http.Client{Timeout: opt.Interval + 5*time.Second},
		n:    opt.Width,
	}
	render := func() error {
		f, err := c.fetch(ctx)
		if err != nil {
			return err
		}
		if !opt.Once {
			fmt.Fprint(w, "\x1b[H\x1b[2J") // home + clear
		}
		fmt.Fprint(w, renderTop(f, opt))
		return nil
	}
	if opt.Once {
		return render()
	}
	// First frame immediately, then on the tick; fetch errors in the
	// loop are transient (server draining/restarting) and are rendered
	// rather than fatal, but a failing first frame aborts fast so a bad
	// -addr doesn't present an empty screen forever.
	if err := render(); err != nil {
		return err
	}
	tick := time.NewTicker(opt.Interval)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			fmt.Fprintln(w)
			return nil
		case <-tick.C:
			if err := render(); err != nil {
				fmt.Fprintf(w, "\n[%s] %v\n", time.Now().Format("15:04:05"), err)
			}
		}
	}
}

// renderTop formats one frame. Pure: everything it shows comes from f.
func renderTop(f *topFrame, opt topOptions) string {
	var b strings.Builder
	sl := f.SLO
	h := f.Health

	fmt.Fprintf(&b, "morphd %s  %s   graph %dv/%de epoch %d   %s\n",
		opt.Addr, h.Status, h.Vertices, h.Edges, h.GraphEpoch,
		f.At.Format("15:04:05"))

	qps := f.Series.Series[server.MetricQueries+":rate"]
	fmt.Fprintf(&b, "%-10s %10s  %s\n", "qps", fmtFloat(lastV(qps)), spark(qps, opt.Width))
	depth := f.Series.Series[server.GaugeQueueDepth]
	fmt.Fprintf(&b, "%-10s %10s  %s\n", "queue", fmtFloat(lastV(depth)), spark(depth, opt.Width))
	fmt.Fprintf(&b, "%-10s %10d  (workers busy)\n", "inflight", h.InFlight)

	// Error-budget burn: the headline number an operator watches.
	burn := "ok"
	if sl.BurnRate >= 1 {
		burn = "BURNING"
	}
	fmt.Fprintf(&b, "%-10s %10.2f  %s  (errors %.2f over %v window)\n",
		"burn rate", sl.BurnRate, burn, sl.ErrorBurnRate,
		time.Duration(sl.WindowNS).Round(time.Second))

	hits := lastV(f.Series.Series[server.MetricCacheHits])
	misses := lastV(f.Series.Series[server.MetricCacheMisses])
	ratio := 0.0
	if hits+misses > 0 {
		ratio = hits / (hits + misses)
	}
	fmt.Fprintf(&b, "%-10s %9.0f%%  (%.0f hits / %.0f misses)\n", "cache hit", ratio*100, hits, misses)

	// Decode throughput: elems are uint32 adjacency entries.
	elems := f.Series.Series[core.MetricDecodeElems+":rate"]
	bytesPS := scale(elems, 4)
	fmt.Fprintf(&b, "%-10s %9s/s  %s\n", "decode", fmtBytes(lastV(bytesPS)), spark(bytesPS, opt.Width))
	if resident := lastV(f.Series.Series[core.GaugeMmapResident]); resident > 0 {
		mapped := lastV(f.Series.Series[core.GaugeMmapMapped])
		fmt.Fprintf(&b, "%-10s %10s  of %s mapped\n", "resident", fmtBytes(resident), fmtBytes(mapped))
	}

	fmt.Fprintf(&b, "\nphase latency p95 (burn rate per phase over the SLO window):\n")
	for _, ph := range []struct{ name, metric string }{
		{"admit", server.MetricPhaseAdmitNS},
		{"queue", server.MetricPhaseQueueNS},
		{"mine", server.MetricPhaseMineNS},
		{"total", server.MetricPhaseTotalNS},
	} {
		pts := f.Series.Series[ph.metric+":p95"]
		p := sl.Phases[ph.name]
		fmt.Fprintf(&b, "  %-7s %9s  burn %5.2f  %s\n",
			ph.name, fmtDur(lastV(pts)), p.BurnRate, spark(pts, opt.Width))
	}
	if len(sl.Tenants) > 1 {
		fmt.Fprintf(&b, "\ntenants:\n")
		for name, tn := range sl.Tenants {
			fmt.Fprintf(&b, "  %-16s %6d queries  err burn %5.2f  lat burn %5.2f\n",
				name, tn.Total, tn.ErrorBurnRate, tn.LatencyBurnRate)
		}
	}
	return b.String()
}

var sparkCells = []rune("▁▂▃▄▅▆▇█")

// spark renders a series as a fixed-width unicode sparkline, scaled to
// the window maximum (an all-zero window renders as a flat baseline).
func spark(pts []obs.Point, width int) string {
	if len(pts) > width {
		pts = pts[len(pts)-width:]
	}
	max := 0.0
	for _, p := range pts {
		if p.Value > max {
			max = p.Value
		}
	}
	var b strings.Builder
	for i := len(pts); i < width; i++ {
		b.WriteByte(' ') // right-align: newest sample at the right edge
	}
	for _, p := range pts {
		if max <= 0 {
			b.WriteRune(sparkCells[0])
			continue
		}
		i := int(p.Value / max * float64(len(sparkCells)-1))
		if i < 0 {
			i = 0
		}
		if i >= len(sparkCells) {
			i = len(sparkCells) - 1
		}
		b.WriteRune(sparkCells[i])
	}
	return b.String()
}

func lastV(pts []obs.Point) float64 {
	if len(pts) == 0 {
		return 0
	}
	return pts[len(pts)-1].Value
}

func scale(pts []obs.Point, by float64) []obs.Point {
	out := make([]obs.Point, len(pts))
	for i, p := range pts {
		out[i] = obs.Point{TimeNS: p.TimeNS, Value: p.Value * by}
	}
	return out
}

func fmtFloat(v float64) string {
	switch {
	case v >= 100:
		return fmt.Sprintf("%.0f", v)
	case v >= 1:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.2f", v)
	}
}

func fmtBytes(v float64) string {
	units := []string{"B", "KB", "MB", "GB", "TB"}
	i := 0
	for v >= 1024 && i < len(units)-1 {
		v /= 1024
		i++
	}
	return fmt.Sprintf("%.1f %s", v, units[i])
}

func fmtDur(ns float64) string {
	if ns <= 0 {
		return "-"
	}
	return time.Duration(ns).Round(10 * time.Microsecond).String()
}
