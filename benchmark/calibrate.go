package main

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// The reference box is a small VM whose speed drifts: measured with
// nothing else running, whole 15 s runs of one workload and seed differ by
// up to 2x for minutes at a time (README "Noise"), which no statistic
// inside a run can remove and no bound the contract allows can contain.
// So every wall-clock end-to-end metric is reported in reference-box time:
// the timed phase is cut into segments of half a second, a frozen kernel
// (below; it shares no code with the repo, so no change to the repo moves
// it) is timed between segments on every CPU, and each operation's time is
// scaled by calibrationNominal over the kernel's time around its segment.
// On a quiet reference box the factor is 1 and the numbers are plain
// milliseconds; the unscaled figures are printed beside them.

// calibrationNominal is what the kernel takes on the quiet reference box
// (2 vCPUs, Intel Xeon @ 2.10GHz, go1.24).
const calibrationNominal = 10 * time.Millisecond

// segmentLength is how long the timed phase runs between calibrations:
// short against the drift (seconds), long against the kernel (3 x 10 ms).
const segmentLength = 500 * time.Millisecond

var calSets = func() [2][]uint32 {
	// Two sorted sets of 16 Ki elements with about half in common: bigger
	// than L1, inside L2, like the adjacency rows the engines intersect.
	var sets [2][]uint32
	x := uint64(88172645463325252)
	v := [2]uint32{}
	for len(sets[0]) < 1<<14 {
		for s := range sets {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			v[s] += 1 + uint32(x%3)
			sets[s] = append(sets[s], v[s])
		}
	}
	return sets
}()

var calSink atomic.Uint64

// calibrate times the frozen kernel three times over and returns the
// best: the first pass also wakes the CPUs a waiting phase (a client
// blocked on the daemon) let fall asleep, which is not the drift.
func calibrate() time.Duration {
	best := kernel()
	for i := 0; i < 2; i++ {
		best = min(best, kernel())
	}
	return best
}

// kernel is one pass of the frozen kernel — merge intersections of the
// two sets — run at once on as many goroutines as the engines use.
func kernel() time.Duration {
	const rounds = 75 // 10 ms on the quiet reference box
	t0 := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			a, b := calSets[0], calSets[1]
			var common uint64
			for r := 0; r < rounds; r++ {
				i, j := r%7, 0
				for i < len(a) && j < len(b) {
					switch {
					case a[i] == b[j]:
						common++
						i++
						j++
					case a[i] < b[j]:
						i++
					default:
						j++
					}
				}
			}
			calSink.Add(common)
		}()
	}
	wg.Wait()
	return time.Since(t0)
}

// op is one timed operation: a batch query or a served request, as its
// caller saw it.
type op struct {
	start, end time.Duration // offsets from the start of its segment
	ok         bool
}

func (o op) ms() float64 { return float64(o.end-o.start) / float64(time.Millisecond) }

// segment is the stretch of the timed phase between two calibrations.
type segment struct {
	ops   []op
	wall  time.Duration // how long the segment ran
	speed float64       // calibrationNominal / the kernel's time around it
}

// phase runs the timed phase: segments until seconds have passed, the
// kernel before each and after the last. work runs one segment's
// operations, calling done between operations to learn when to stop.
func phase(seconds float64, work func(done func() bool) []op) []segment {
	var segs []segment
	limit := time.Duration(seconds * float64(time.Second))
	start := time.Now()
	before := calibrate()
	for time.Since(start) < limit {
		t0 := time.Now()
		ops := work(func() bool { return time.Since(t0) >= segmentLength || time.Since(start) >= limit })
		wall := time.Since(t0)
		after := calibrate()
		segs = append(segs, segment{ops: ops, wall: wall, speed: speedOf(before, after)})
		before = after
	}
	return segs
}

// speedOf is the factor that turns a time measured between two
// calibrations into reference-box time.
func speedOf(before, after time.Duration) float64 {
	return 2 * float64(calibrationNominal) / float64(before+after)
}

// scaled runs f between two calibrations and returns its duration in
// reference-box seconds and as measured.
func scaled(f func()) (ref, raw float64) {
	before := calibrate()
	t0 := time.Now()
	f()
	d := time.Since(t0).Seconds()
	return d * speedOf(before, calibrate()), d
}
