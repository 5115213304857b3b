package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// History is a fixed-interval sampler: every Interval it snapshots a
// selected set of counters, gauges and histograms from a Registry and
// appends one point per derived series into a bounded ring of samples.
// It is the longitudinal layer behind /timeseries and `morphcli top` —
// /metrics and /vars answer "what is the value now", History answers
// "how has it moved over the last few minutes" without any external
// scrape infrastructure.
//
// Derived series, per source metric:
//
//	counter c    -> "c"       cumulative value
//	             -> "c:rate"  per-second delta between consecutive samples
//	gauge g      -> "g"       last value
//	histogram h  -> "h:p50" "h:p95" "h:p99"  windowed quantiles
//	             -> "h:rate"                 observations per second
//
// Histogram quantiles are computed from the DELTA between consecutive
// snapshots (HistogramSnapshot.Sub), not from the cumulative buckets:
// each point describes only the observations of its own sampling
// interval, so a latency regression shows up in the next point instead
// of being averaged away under hours of prior history. An interval with
// no observations yields a zero point.
//
// Concurrency: a single goroutine samples; readers (HTTP handlers, the
// flight recorder) are lock-free. Each series publishes its window as an
// immutable slice header through an atomic pointer — the writer appends
// into spare capacity beyond every published header's length and
// republishes, so a reader holding an old header never observes a write.
type History struct {
	reg      *Registry
	cfg      HistoryConfig
	capacity int // points retained per series

	counters []*historyCounter
	gauges   []*historyGauge
	hists    []*historyHist
	series   map[string]*series // fixed at construction; read-only afterwards

	samples atomic.Uint64 // ticks taken so far
	lastNS  atomic.Int64  // wall clock of the newest sample

	startOnce sync.Once
	stopOnce  sync.Once
	stop      chan struct{}
	done      chan struct{}
}

// HistoryConfig selects what History samples and how much it retains.
type HistoryConfig struct {
	// Interval is the sampling period. 0 defaults to one second.
	Interval time.Duration
	// Counters, Gauges and Histograms name the metrics to sample. The
	// set is fixed at construction; metrics that do not exist yet are
	// created in the registry (at zero) so series are always present.
	Counters   []string
	Gauges     []string
	Histograms []string
}

func (c HistoryConfig) withDefaults() HistoryConfig {
	if c.Interval <= 0 {
		c.Interval = time.Second
	}
	return c
}

// Point is one time-series sample.
type Point struct {
	TimeNS int64   `json:"t"` // unix nanoseconds
	Value  float64 `json:"v"`
}

// series is one bounded time series with lock-free reads. The writer
// owns buf; readers only ever see the immutable window published in
// win. Appends write buf[len(window)], which no published header
// reaches; once buf grows to twice the retention capacity the writer
// moves the live tail to a fresh array, leaving old headers aliasing
// the abandoned (now immutable) one.
type series struct {
	cap int
	buf []Point
	win atomic.Pointer[[]Point]
}

func newSeries(capacity int) *series {
	s := &series{cap: capacity, buf: make([]Point, 0, 2*capacity)}
	w := s.buf[:0:0]
	s.win.Store(&w)
	return s
}

// add appends one point and republishes the window. Writer-only.
func (s *series) add(p Point) {
	if len(s.buf) >= 2*s.cap {
		fresh := make([]Point, s.cap, 2*s.cap)
		copy(fresh, s.buf[len(s.buf)-s.cap:])
		s.buf = fresh
	}
	s.buf = append(s.buf, p)
	start := 0
	if len(s.buf) > s.cap {
		start = len(s.buf) - s.cap
	}
	w := s.buf[start:len(s.buf):len(s.buf)] // capped: callers cannot append into spare capacity
	s.win.Store(&w)
}

// points returns the current window. The slice is immutable — callers
// must not modify it.
func (s *series) points() []Point {
	return *s.win.Load()
}

type historyCounter struct {
	c    *Counter
	prev uint64
	val  *series // cumulative
	rate *series // per-second delta
}

type historyGauge struct {
	g   *Gauge
	val *series
}

type historyHist struct {
	h    *Histogram
	prev HistogramSnapshot
	p50  *series
	p95  *series
	p99  *series
	rate *series
}

// NewHistory builds a sampler over reg. It takes an initial baseline
// snapshot (so the first recorded point is a true interval delta, not
// "everything since process start") but does not start sampling — call
// Start for the background goroutine, or SampleNow from a test.
func NewHistory(reg *Registry, cfg HistoryConfig) *History {
	return newHistory(reg, cfg, historyCapacity)
}

// historyCapacity is the number of points each series retains: six
// minutes at the default one-second interval.
const historyCapacity = 360

// newHistory is NewHistory retaining capacity points per series
// (historyCapacity outside tests).
func newHistory(reg *Registry, cfg HistoryConfig, capacity int) *History {
	cfg = cfg.withDefaults()
	h := &History{
		reg:      reg,
		cfg:      cfg,
		capacity: capacity,
		series:   make(map[string]*series),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	mk := func(name string) *series {
		s := newSeries(capacity)
		h.series[name] = s
		return s
	}
	for _, name := range cfg.Counters {
		c := reg.Counter(name)
		h.counters = append(h.counters, &historyCounter{
			c: c, prev: c.Value(), val: mk(name), rate: mk(name + ":rate"),
		})
	}
	for _, name := range cfg.Gauges {
		h.gauges = append(h.gauges, &historyGauge{g: reg.Gauge(name), val: mk(name)})
	}
	for _, name := range cfg.Histograms {
		hist := reg.Histogram(name)
		h.hists = append(h.hists, &historyHist{
			h: hist, prev: hist.Snapshot(),
			p50: mk(name + ":p50"), p95: mk(name + ":p95"),
			p99: mk(name + ":p99"), rate: mk(name + ":rate"),
		})
	}
	return h
}

// Start launches the sampling goroutine. Idempotent.
func (h *History) Start() {
	if h == nil {
		return
	}
	h.startOnce.Do(func() {
		go h.run()
	})
}

func (h *History) run() {
	defer close(h.done)
	tick := time.NewTicker(h.cfg.Interval)
	defer tick.Stop()
	for {
		select {
		case <-h.stop:
			return
		case now := <-tick.C:
			h.sampleAt(now)
		}
	}
}

// Stop halts the sampler and waits for its goroutine to exit. Safe to
// call whether or not Start ran, and more than once.
func (h *History) Stop() {
	if h == nil {
		return
	}
	h.stopOnce.Do(func() { close(h.stop) })
	h.startOnce.Do(func() { close(h.done) }) // never started: nothing to wait for
	<-h.done
}

// SampleNow takes one sample synchronously. Intended for tests and for
// callers that drive their own cadence; must not race with a running
// Start goroutine (the sampler writer is single-threaded by contract).
func (h *History) SampleNow() {
	if h == nil {
		return
	}
	h.sampleAt(time.Now())
}

func (h *History) sampleAt(now time.Time) {
	t := now.UnixNano()
	elapsed := h.cfg.Interval
	if last := h.lastNS.Load(); last != 0 && t > last {
		elapsed = time.Duration(t - last)
	}
	for _, c := range h.counters {
		v := c.c.Value()
		c.val.add(Point{TimeNS: t, Value: float64(v)})
		var rate float64
		if v > c.prev && elapsed > 0 {
			rate = float64(v-c.prev) / elapsed.Seconds()
		}
		c.rate.add(Point{TimeNS: t, Value: rate})
		c.prev = v
	}
	for _, g := range h.gauges {
		g.val.add(Point{TimeNS: t, Value: g.g.Value()})
	}
	for _, hh := range h.hists {
		cur := hh.h.Snapshot()
		win := cur.Sub(hh.prev) // windowed: this interval's observations only
		hh.p50.add(Point{TimeNS: t, Value: float64(win.P50)})
		hh.p95.add(Point{TimeNS: t, Value: float64(win.P95)})
		hh.p99.add(Point{TimeNS: t, Value: float64(win.P99)})
		hh.rate.add(Point{TimeNS: t, Value: cur.Rate(hh.prev, elapsed)})
		hh.prev = cur
	}
	h.lastNS.Store(t)
	h.samples.Add(1)
}

// Series returns the named series' current window (nil if the name was
// not configured). The returned slice is immutable.
func (h *History) Series(name string) []Point {
	if h == nil {
		return nil
	}
	s := h.series[name]
	if s == nil {
		return nil
	}
	return s.points()
}

// HistorySnapshot is the JSON form of a History — the /timeseries
// payload and the history.json section of a flight dump.
type HistorySnapshot struct {
	IntervalNS int64              `json:"interval_ns"`
	Capacity   int                `json:"capacity"`
	Samples    uint64             `json:"samples"`
	LastNS     int64              `json:"last_ns"`
	Series     map[string][]Point `json:"series"`
}

// Snapshot captures every series' current window. Lock-free; safe while
// the sampler is running. A limit > 0 caps each series to its newest
// limit points (flight dumps embed a short tail, not the whole ring).
func (h *History) Snapshot(limit int) HistorySnapshot {
	if h == nil {
		return HistorySnapshot{Series: map[string][]Point{}}
	}
	out := HistorySnapshot{
		IntervalNS: int64(h.cfg.Interval),
		Capacity:   h.capacity,
		Samples:    h.samples.Load(),
		LastNS:     h.lastNS.Load(),
		Series:     make(map[string][]Point, len(h.series)),
	}
	for name, s := range h.series {
		pts := s.points()
		if limit > 0 && len(pts) > limit {
			pts = pts[len(pts)-limit:]
		}
		out.Series[name] = pts
	}
	return out
}
