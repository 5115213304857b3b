package obs

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// shardCount is the number of per-worker cells behind every counter and
// histogram. Workers index cells by their worker ID masked to this power
// of two, so concurrent engine workers (IDs 0..ThreadCount()-1 of their
// pass, which may exceed the cell count) land on distinct
// cache-line-padded cells and contend only past it.
const shardCount = 64

// cell is one cache-line-padded atomic counter shard.
type cell struct {
	v atomic.Uint64
	_ [56]byte // pad to 64 bytes so neighboring shards never false-share
}

// Counter is a monotonically increasing metric backed by sharded cells.
// Adds are wait-free uncontended atomics; Value merges the shards on
// read. The zero Counter must not be used directly — obtain counters from
// a Registry. All methods are safe on a nil receiver (they no-op or
// return zero), which is how disabled observability stays branch-free at
// call sites.
type Counter struct {
	name  string
	cells [shardCount]cell
}

// Add increments the counter by n on the worker's shard.
func (c *Counter) Add(worker int, n uint64) {
	if c == nil || n == 0 {
		return
	}
	c.cells[worker&(shardCount-1)].v.Add(n)
}

// Inc increments the counter by one on the worker's shard.
func (c *Counter) Inc(worker int) { c.Add(worker, 1) }

// Value merges all shards and returns the current total.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	var total uint64
	for i := range c.cells {
		total += c.cells[i].v.Load()
	}
	return total
}

// Name returns the registered metric name.
func (c *Counter) Name() string {
	if c == nil {
		return ""
	}
	return c.name
}

// Gauge is a last-value metric (queue depth, resident bytes). Stores are
// single atomics; floats travel as IEEE-754 bits.
type Gauge struct {
	name string
	v    atomic.Uint64
}

// Set records the gauge's current value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.v.Store(math.Float64bits(v))
}

// Value returns the last value set (0 before any Set).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.v.Load())
}

// Name returns the registered metric name.
func (g *Gauge) Name() string {
	if g == nil {
		return ""
	}
	return g.name
}

// histBuckets is the bucket count of a log-scale histogram: bucket i
// holds observations v with bits.Len64(v) == i, i.e. bucket 0 is exactly
// zero and bucket i>=1 covers [2^(i-1), 2^i).
const histBuckets = 65

// histShard is one worker's view of a histogram. Shards are written by
// one worker each, so intra-shard layout needs no padding; trailing pad
// keeps adjacent shards off each other's last cache line.
type histShard struct {
	count   atomic.Uint64
	sum     atomic.Uint64
	buckets [histBuckets]atomic.Uint64
	_       [56]byte
}

// Histogram is a log2-bucketed distribution backed by sharded cells,
// sized for durations in nanoseconds and work counts. Like Counter, all
// methods are nil-safe.
type Histogram struct {
	name   string
	shards [shardCount]histShard
}

// Observe records one sample on the worker's shard.
func (h *Histogram) Observe(worker int, v uint64) {
	if h == nil {
		return
	}
	s := &h.shards[worker&(shardCount-1)]
	s.count.Add(1)
	s.sum.Add(v)
	s.buckets[bits.Len64(v)].Add(1)
}

// Snapshot merges all shards into one distribution and fills the
// approximate P50/P95/P99 summary fields (see Quantile).
func (h *Histogram) Snapshot() HistogramSnapshot {
	var out HistogramSnapshot
	if h == nil {
		return out
	}
	for i := range h.shards {
		s := &h.shards[i]
		out.Count += s.count.Load()
		out.Sum += s.sum.Load()
		for b := 0; b < histBuckets; b++ {
			out.Buckets[b] += s.buckets[b].Load()
		}
	}
	out.P50 = out.Quantile(0.50)
	out.P95 = out.Quantile(0.95)
	out.P99 = out.Quantile(0.99)
	return out
}

// Name returns the registered metric name.
func (h *Histogram) Name() string {
	if h == nil {
		return ""
	}
	return h.name
}

// HistogramSnapshot is a merged histogram: Buckets[i] counts observations
// v with bits.Len64(v) == i (upper bound 2^i - 1). P50/P95/P99 are the
// approximate quantiles computed from the buckets at snapshot time; they
// ride along in the /vars JSON and in run reports.
type HistogramSnapshot struct {
	Count   uint64              `json:"count"`
	Sum     uint64              `json:"sum"`
	Buckets [histBuckets]uint64 `json:"buckets"`
	P50     uint64              `json:"p50"`
	P95     uint64              `json:"p95"`
	P99     uint64              `json:"p99"`
}

// Quantile approximates the q-quantile (q in [0,1]) of the recorded
// distribution from the log2 bucket counts: the target rank is located by
// cumulative count, then interpolated linearly inside its bucket's value
// range. The error is bounded by the bucket width (a factor of 2), which
// is plenty to tell a straggling worker or a mispredicted selectivity
// from its peers. Zero observations yield 0; q outside [0,1] is clamped.
func (s HistogramSnapshot) Quantile(q float64) uint64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// Rank of the target observation, 1-based: ceil(q * count), at least 1.
	rank := uint64(math.Ceil(q * float64(s.Count)))
	if rank == 0 {
		rank = 1
	}
	var cum uint64
	for i := 0; i < histBuckets; i++ {
		if s.Buckets[i] == 0 {
			continue
		}
		if cum+s.Buckets[i] < rank {
			cum += s.Buckets[i]
			continue
		}
		if i == 0 {
			return 0 // bucket 0 holds exactly-zero observations
		}
		lo := float64(uint64(1) << uint(i-1)) // inclusive lower bound 2^(i-1)
		hi := 2 * lo                          // exclusive upper bound 2^i
		if i >= 64 {
			hi = float64(math.MaxUint64)
		}
		// Position of the target rank within this bucket, in (0, 1].
		frac := float64(rank-cum) / float64(s.Buckets[i])
		v := lo + frac*(hi-lo)
		if v >= float64(math.MaxUint64) {
			return math.MaxUint64
		}
		return uint64(v)
	}
	return BucketUpperBound(histBuckets - 1)
}

// Sub returns the windowed distribution observed between prev and s:
// each bucket, the count and the sum are the differences of the two
// cumulative snapshots, and P50/P95/P99 are recomputed over that window
// only. This is how History derives per-interval quantiles — comparing
// consecutive snapshots isolates the observations of one sampling
// interval, whereas quantiles over the cumulative buckets would be
// dominated by the whole process history and never show a regression
// that starts after warm-up. prev must be an earlier snapshot of the
// same histogram; stale or swapped arguments saturate to zero rather
// than underflow.
func (s HistogramSnapshot) Sub(prev HistogramSnapshot) HistogramSnapshot {
	var out HistogramSnapshot
	if s.Count > prev.Count {
		out.Count = s.Count - prev.Count
	}
	if s.Sum > prev.Sum {
		out.Sum = s.Sum - prev.Sum
	}
	for i := 0; i < histBuckets; i++ {
		if s.Buckets[i] > prev.Buckets[i] {
			out.Buckets[i] = s.Buckets[i] - prev.Buckets[i]
		}
	}
	out.P50 = out.Quantile(0.50)
	out.P95 = out.Quantile(0.95)
	out.P99 = out.Quantile(0.99)
	return out
}

// Rate returns observations per second between the since snapshot and
// this one, given the wall-clock time elapsed between them. Non-positive
// elapsed yields 0.
func (s HistogramSnapshot) Rate(since HistogramSnapshot, elapsed time.Duration) float64 {
	if elapsed <= 0 || s.Count <= since.Count {
		return 0
	}
	return float64(s.Count-since.Count) / elapsed.Seconds()
}

// BucketUpperBound returns the inclusive upper bound of bucket i.
func BucketUpperBound(i int) uint64 {
	if i <= 0 {
		return 0
	}
	if i >= 64 {
		return math.MaxUint64
	}
	return 1<<uint(i) - 1
}

// Registry is a named-metric registry. Metric lookups take a read lock
// and a map access; engine hot paths resolve their metrics once per
// execution and hold the returned pointers, so the registry itself is
// never on a per-match path. A nil *Registry is valid and returns nil
// (inert) metrics.
type Registry struct {
	mu         sync.RWMutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{name: name}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{name: name}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h := r.histograms[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.histograms[name]; h == nil {
		h = &Histogram{name: name}
		r.histograms[name] = h
	}
	return h
}

// Snapshot merges every metric's shards into a point-in-time view.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]uint64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return s
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.histograms {
		s.Histograms[name] = h.Snapshot()
	}
	return s
}

// Snapshot is a merged, read-only view of a registry, ready for JSON
// encoding (the /vars endpoint and `morphcli count -stats json`).
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters"`
	Gauges     map[string]float64           `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// WritePrometheus renders the snapshot in the Prometheus text exposition
// format (the /metrics endpoint): a # TYPE line per metric, after the
// metric's # HELP line when it is a published one (metricHelp), and
// cumulative le-labelled buckets ending in +Inf for histograms. Metric
// names are emitted as registered; registered names and help texts use no
// character the format would need escaped.
func (s Snapshot) WritePrometheus(w io.Writer) error {
	for _, name := range sortedKeys(s.Counters) {
		if err := s.writeHeader(w, name, "counter"); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s %d\n", name, s.Counters[name]); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(s.Gauges) {
		if err := s.writeHeader(w, name, "gauge"); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s %g\n", name, s.Gauges[name]); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(s.Histograms) {
		h := s.Histograms[name]
		if err := s.writeHeader(w, name, "histogram"); err != nil {
			return err
		}
		var cum uint64
		for i := 0; i < histBuckets; i++ {
			if h.Buckets[i] == 0 {
				continue // sparse exposition: empty buckets add no information
			}
			cum += h.Buckets[i]
			if _, err := fmt.Fprintf(w, "%s_bucket{le=\"%d\"} %d\n", name, BucketUpperBound(i), cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %d\n%s_count %d\n",
			name, h.Count, name, h.Sum, name, h.Count); err != nil {
			return err
		}
	}
	return nil
}

// writeHeader emits the # HELP and # TYPE comment lines for one metric.
func (s Snapshot) writeHeader(w io.Writer, name, typ string) error {
	if h := help(name); h != "" {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n", name, h); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "# TYPE %s %s\n", name, typ)
	return err
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
