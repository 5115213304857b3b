package server

import (
	"sync"
	"time"
)

// SLO phases: where a query's wall time went. A query contributes an
// observation to every phase it actually passed through — admit
// (prepare + admission pipeline, up to enqueue), queue (enqueue to
// worker pickup), mine (worker execution), and total (submit to
// terminal outcome, present for every query including rejections and
// cache hits).
const (
	sloAdmit = iota
	sloQueue
	sloMine
	sloTotal
	sloPhases
)

var sloPhaseNames = [sloPhases]string{"admit", "queue", "mine", "total"}

// The serving objectives the tracker scores against. One latency
// objective applies to every phase: the per-phase burn rates then
// attribute WHICH phase is burning the budget.
const (
	// sloBuckets is the ring granularity inside the window: observations
	// age out one bucket (window/sloBuckets) at a time.
	sloBuckets = 30
	// sloLatencyObjective is the per-phase latency target: an observation
	// over it is "bad" for its phase.
	sloLatencyObjective = time.Second
	// sloLatencyGoal is the fraction of observations that must meet the
	// objective (a 1% latency error budget).
	sloLatencyGoal = 0.99
	// sloErrorGoal is the maximum acceptable fraction of failed queries.
	// Client-caused rejections (bad_request) don't count; everything else
	// — including load-shed rejections and deadline kills — spends the
	// availability budget.
	sloErrorGoal = 0.01
	// sloMaxTenants bounds per-tenant tracking; observations from tenants
	// beyond it aggregate under sloOverflowTenant.
	sloMaxTenants = 32
)

// sloBucket aggregates the observations of one time slice.
type sloBucket struct {
	start int64 // unix ns of the slice this bucket currently holds; 0 = empty
	count [sloPhases]uint64
	over  [sloPhases]uint64 // observations exceeding the latency objective
	sumNS [sloPhases]uint64
	maxNS [sloPhases]uint64
	total uint64 // queries (total-phase observations)
	errs  uint64 // failed queries
}

// sloRing is a circular bucket array covering one rolling window.
// Bucket i holds the slice starting at start where (start/width)%n == i;
// a new slice landing on a stale bucket resets it, which is how old
// observations age out without any background sweeper.
type sloRing struct {
	buckets []sloBucket
}

func newSLORing(n int) *sloRing { return &sloRing{buckets: make([]sloBucket, n)} }

// bucketFor returns the bucket owning the slice containing t, resetting
// it if it still holds an older slice.
func (r *sloRing) bucketFor(t int64, width int64) *sloBucket {
	start := t - t%width
	b := &r.buckets[(start/width)%int64(len(r.buckets))]
	if b.start != start {
		*b = sloBucket{start: start}
	}
	return b
}

// observe records one query's phase durations.
func (r *sloRing) observe(t int64, width int64, objNS int64, d [sloPhases]time.Duration, valid [sloPhases]bool, failed bool) {
	b := r.bucketFor(t, width)
	for i := 0; i < sloPhases; i++ {
		if !valid[i] {
			continue
		}
		ns := uint64(d[i])
		b.count[i]++
		b.sumNS[i] += ns
		if ns > b.maxNS[i] {
			b.maxNS[i] = ns
		}
		if int64(d[i]) > objNS {
			b.over[i]++
		}
	}
	b.total++
	if failed {
		b.errs++
	}
}

// sum folds the buckets still inside the window ending at now.
func (r *sloRing) sum(now int64, windowNS int64) sloBucket {
	var out sloBucket
	cutoff := now - windowNS
	for i := range r.buckets {
		b := &r.buckets[i]
		if b.start == 0 || b.start <= cutoff || b.start > now {
			continue
		}
		for p := 0; p < sloPhases; p++ {
			out.count[p] += b.count[p]
			out.over[p] += b.over[p]
			out.sumNS[p] += b.sumNS[p]
			if b.maxNS[p] > out.maxNS[p] {
				out.maxNS[p] = b.maxNS[p]
			}
		}
		out.total += b.total
		out.errs += b.errs
	}
	return out
}

// sloTracker scores query outcomes against the configured objectives
// over a rolling window, globally and per tenant.
//
// Burn rate follows the SRE convention: the fraction of the error
// budget consumed per unit of budget available in the window —
// badFraction / (1 - goal) for latency, errorFraction / errorGoal for
// availability. 1.0 means "burning exactly as fast as the budget
// allows"; sustained values above 1 exhaust the budget early and are
// what alerts page on.
type sloTracker struct {
	window    time.Duration
	objective time.Duration
	widthNS   int64

	mu      sync.Mutex
	global  *sloRing
	tenants map[string]*sloRing
}

// sloOverflowTenant aggregates tenants beyond the sloMaxTenants cap.
const sloOverflowTenant = "~other"

// newSLOTracker scores over a rolling window against a per-phase latency
// objective (sloLatencyObjective outside tests).
func newSLOTracker(window, objective time.Duration) *sloTracker {
	return &sloTracker{
		window:    window,
		objective: objective,
		widthNS:   int64(window) / sloBuckets,
		global:    newSLORing(sloBuckets),
		tenants:   make(map[string]*sloRing),
	}
}

// observe records one query outcome at time now for the given tenant.
func (tr *sloTracker) observe(now time.Time, tenant string, d [sloPhases]time.Duration, valid [sloPhases]bool, failed bool) {
	if tr == nil {
		return
	}
	t := now.UnixNano()
	objNS := int64(tr.objective)
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.global.observe(t, tr.widthNS, objNS, d, valid, failed)
	ring := tr.tenants[tenant]
	if ring == nil {
		if len(tr.tenants) >= sloMaxTenants {
			tenant = sloOverflowTenant
			ring = tr.tenants[tenant]
		}
		if ring == nil {
			ring = newSLORing(sloBuckets)
			tr.tenants[tenant] = ring
		}
	}
	ring.observe(t, tr.widthNS, objNS, d, valid, failed)
}

// SLOPhase is one phase's scoring over the window.
type SLOPhase struct {
	Count        uint64  `json:"count"`
	Over         uint64  `json:"over"` // observations exceeding the objective
	OverFraction float64 `json:"over_fraction"`
	MeanNS       int64   `json:"mean_ns"`
	MaxNS        int64   `json:"max_ns"`
	// BurnRate is OverFraction / (1 - LatencyGoal): how fast this phase
	// is consuming the latency error budget (1.0 = exactly at budget).
	BurnRate float64 `json:"burn_rate"`
}

// SLOTenant is one tenant's scoring over the window.
type SLOTenant struct {
	Total           uint64  `json:"total"`
	Errors          uint64  `json:"errors"`
	ErrorRate       float64 `json:"error_rate"`
	ErrorBurnRate   float64 `json:"error_burn_rate"`
	LatencyBurnRate float64 `json:"latency_burn_rate"` // total phase
}

// SLOStatus is the /slo payload: the rolling-window objectives
// scorecard.
type SLOStatus struct {
	WindowNS           int64   `json:"window_ns"`
	LatencyObjectiveNS int64   `json:"latency_objective_ns"`
	LatencyGoal        float64 `json:"latency_goal"`
	ErrorGoal          float64 `json:"error_goal"`

	Total     uint64  `json:"total"`
	Errors    uint64  `json:"errors"`
	ErrorRate float64 `json:"error_rate"`
	// ErrorBurnRate is ErrorRate / ErrorGoal.
	ErrorBurnRate float64 `json:"error_burn_rate"`
	// BurnRate is the headline number: the worst of the availability
	// burn and the total-phase latency burn. > 0 means budget is being
	// spent; sustained > 1 means the objective will be missed.
	BurnRate float64 `json:"burn_rate"`

	Phases  map[string]SLOPhase  `json:"phases"`
	Tenants map[string]SLOTenant `json:"tenants,omitempty"`
}

// Status folds the window ending at now into the scorecard.
func (tr *sloTracker) Status(now time.Time) SLOStatus {
	out := SLOStatus{
		WindowNS:           int64(tr.window),
		LatencyObjectiveNS: int64(tr.objective),
		LatencyGoal:        sloLatencyGoal,
		ErrorGoal:          sloErrorGoal,
		Phases:             make(map[string]SLOPhase, sloPhases),
	}
	t := now.UnixNano()
	latBudget := 1 - sloLatencyGoal

	tr.mu.Lock()
	defer tr.mu.Unlock()
	g := tr.global.sum(t, int64(tr.window))
	out.Total = g.total
	out.Errors = g.errs
	if g.total > 0 {
		out.ErrorRate = float64(g.errs) / float64(g.total)
		out.ErrorBurnRate = out.ErrorRate / sloErrorGoal
	}
	out.BurnRate = out.ErrorBurnRate
	for i := 0; i < sloPhases; i++ {
		p := SLOPhase{Count: g.count[i], Over: g.over[i], MaxNS: int64(g.maxNS[i])}
		if g.count[i] > 0 {
			p.OverFraction = float64(g.over[i]) / float64(g.count[i])
			p.MeanNS = int64(g.sumNS[i] / g.count[i])
			p.BurnRate = p.OverFraction / latBudget
		}
		out.Phases[sloPhaseNames[i]] = p
		if i == sloTotal && p.BurnRate > out.BurnRate {
			out.BurnRate = p.BurnRate
		}
	}
	if len(tr.tenants) > 0 {
		out.Tenants = make(map[string]SLOTenant, len(tr.tenants))
		for name, ring := range tr.tenants {
			b := ring.sum(t, int64(tr.window))
			if b.total == 0 {
				continue
			}
			tn := SLOTenant{Total: b.total, Errors: b.errs}
			tn.ErrorRate = float64(b.errs) / float64(b.total)
			tn.ErrorBurnRate = tn.ErrorRate / sloErrorGoal
			if b.count[sloTotal] > 0 {
				tn.LatencyBurnRate = (float64(b.over[sloTotal]) / float64(b.count[sloTotal])) / latBudget
			}
			out.Tenants[name] = tn
		}
	}
	return out
}
