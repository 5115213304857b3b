// Package faultinject provides deterministic, seedable fault injection
// points for exercising the mining pipeline's robustness layer:
// panic-at-match-N (a UDF that blows up mid-stream), stall-worker
// (one worker sleeps at every work-block claim, simulating a straggler)
// and cancel-after-D (the execution's context is canceled a fixed delay
// after it starts).
//
// Injection is process-global but armed explicitly: executors resolve the
// injector once per execution via Active, so an unarmed process pays one
// atomic load per run and nothing per block. Arm refuses to install an
// injector outside a test binary (testing.Testing()), so production
// builds structurally cannot trip the faults — the hooks they call are
// nil-receiver no-ops. The one deliberate exception is ArmFromEnv, which
// arms from the MORPH_FAULT environment variable so a long-running daemon
// (morphd) can be chaos-tested end to end; setting that variable is the
// operator's explicit opt-in.
package faultinject

import (
	"context"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// Config describes one fault scenario. Zero-valued fields are disabled,
// so a Config enables any subset of the three injection points.
type Config struct {
	// PanicAtMatch panics in the worker whose counted matches take the
	// running total (1-based, across all workers) to N or past it, once
	// the window or block holding the N-th match is done. 0 disables.
	PanicAtMatch uint64
	// PanicMessage is the value passed to panic (a default is used when
	// empty), letting tests assert the recovered value round-trips.
	PanicMessage string
	// StallWorker selects the worker ID that BlockClaimed stalls.
	// Effective only when StallFor > 0.
	StallWorker int
	// StallFor is how long the selected worker sleeps at each block claim.
	// 0 disables stalling.
	StallFor time.Duration
	// CancelAfter cancels the execution's derived context this long after
	// Context is called. 0 disables. The resulting error is a plain
	// cancellation (context.Canceled), not a deadline.
	CancelAfter time.Duration
}

// MatchTarget derives a deterministic panic ordinal in [1, span] from a
// seed (splitmix64 finalizer), so fault campaigns can sweep seeds and
// still reproduce any failure exactly. span 0 returns 0 (disabled).
func MatchTarget(seed, span uint64) uint64 {
	if span == 0 {
		return 0
	}
	z := seed + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return z%span + 1
}

// Injector is an armed Config plus the shared match ordinal. All methods
// are safe on a nil receiver (the unarmed state), which is what lets the
// executors call them unconditionally.
type Injector struct {
	cfg     Config
	matches atomic.Uint64
}

var active atomic.Pointer[Injector]

// Arm installs cfg as the process-wide injector and returns a disarm
// function. It fails outside a test binary: the injection points are a
// test-only contract and must never fire in production processes unless
// the operator opts in explicitly through the environment (ArmFromEnv).
// Arming while another Config is armed replaces it (last arm wins);
// disarm only removes the injector it installed.
func Arm(cfg Config) (func(), error) {
	if !testing.Testing() {
		return nil, fmt.Errorf("faultinject: refusing to arm outside a test binary")
	}
	return arm(cfg), nil
}

// arm installs cfg unconditionally; callers gate the entry points.
func arm(cfg Config) func() {
	in := &Injector{cfg: cfg}
	if in.cfg.PanicMessage == "" {
		in.cfg.PanicMessage = "faultinject: injected panic"
	}
	active.Store(in)
	return func() { active.CompareAndSwap(in, nil) }
}

// EnvFault is the environment variable ArmFromEnv reads: a fault spec in
// the ParseSpec grammar. Setting it on a long-running process (morphd) is
// the operator's explicit opt-in to chaos testing; an unset or empty
// variable arms nothing and costs nothing.
const EnvFault = "MORPH_FAULT"

// ArmFromEnv arms the process-wide injector from $MORPH_FAULT. Unlike
// Arm it works outside test binaries: the environment variable is an
// explicit, deliberate act by whoever launched the process, which is
// exactly the end-to-end chaos-testing contract — no test-only hooks leak
// into production builds, and production deployments that never set the
// variable structurally cannot trip the faults. It returns the armed
// Config and a disarm function, or armed=false when the variable is
// unset/empty.
func ArmFromEnv() (cfg Config, disarm func(), armed bool, err error) {
	spec := os.Getenv(EnvFault)
	if spec == "" {
		return Config{}, nil, false, nil
	}
	cfg, err = ParseSpec(spec)
	if err != nil {
		return Config{}, nil, false, fmt.Errorf("faultinject: $%s: %w", EnvFault, err)
	}
	return cfg, arm(cfg), true, nil
}

// ParseSpec parses a textual fault specification: comma-separated
// clauses, each enabling one injection point.
//
//	panic@N            panic when the N-th match is delivered
//	panic@N:MESSAGE    ... with an explicit panic value
//	stall=W:DUR        worker W sleeps DUR at every work-block claim
//	cancel=DUR         cancel the execution's context DUR after it starts
//
// Example: MORPH_FAULT=panic@100,stall=2:50ms,cancel=1s
func ParseSpec(spec string) (Config, error) {
	var cfg Config
	for _, clause := range strings.Split(spec, ",") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		switch {
		case strings.HasPrefix(clause, "panic@"):
			rest := strings.TrimPrefix(clause, "panic@")
			numStr, msg, hasMsg := strings.Cut(rest, ":")
			n, err := strconv.ParseUint(numStr, 10, 64)
			if err != nil || n == 0 {
				return Config{}, fmt.Errorf("bad clause %q: want panic@N with N >= 1", clause)
			}
			cfg.PanicAtMatch = n
			if hasMsg {
				cfg.PanicMessage = msg
			}
		case strings.HasPrefix(clause, "stall="):
			rest := strings.TrimPrefix(clause, "stall=")
			workerStr, durStr, ok := strings.Cut(rest, ":")
			if !ok {
				return Config{}, fmt.Errorf("bad clause %q: want stall=WORKER:DURATION", clause)
			}
			w, err := strconv.Atoi(workerStr)
			if err != nil || w < 0 {
				return Config{}, fmt.Errorf("bad clause %q: worker must be a non-negative integer", clause)
			}
			d, err := time.ParseDuration(durStr)
			if err != nil || d <= 0 {
				return Config{}, fmt.Errorf("bad clause %q: bad stall duration", clause)
			}
			cfg.StallWorker = w
			cfg.StallFor = d
		case strings.HasPrefix(clause, "cancel="):
			d, err := time.ParseDuration(strings.TrimPrefix(clause, "cancel="))
			if err != nil || d <= 0 {
				return Config{}, fmt.Errorf("bad clause %q: bad cancel duration", clause)
			}
			cfg.CancelAfter = d
		default:
			return Config{}, fmt.Errorf("unknown clause %q (want panic@N[:msg], stall=W:dur, cancel=dur)", clause)
		}
	}
	if cfg == (Config{}) {
		return Config{}, fmt.Errorf("spec %q enables no injection point", spec)
	}
	return cfg, nil
}

// Active returns the armed injector, or nil. Executors call this once at
// the start of an execution and thread the result through their workers,
// keeping the per-block cost a nil check rather than an atomic load.
func Active() *Injector { return active.Load() }

// MatchesCounted is the panic-at-match-N injection point: n matches just
// completed on worker — a counting block, or a window a sink returned
// from. The panic fires once, in the call whose n takes the running total
// to the configured ordinal or past it.
func (in *Injector) MatchesCounted(worker int, n uint64) {
	if in == nil || in.cfg.PanicAtMatch == 0 || n == 0 {
		return
	}
	total := in.matches.Add(n)
	if total >= in.cfg.PanicAtMatch && total-n < in.cfg.PanicAtMatch {
		panic(in.cfg.PanicMessage)
	}
}

// BlockClaimed is the stall-worker injection point: executors call it
// each time a worker claims a work block or dataflow batch.
func (in *Injector) BlockClaimed(worker int) {
	if in == nil || in.cfg.StallFor <= 0 || worker != in.cfg.StallWorker {
		return
	}
	time.Sleep(in.cfg.StallFor)
}

// Context is the cancel-after-D injection point: it derives a context
// that is canceled CancelAfter after this call. The returned stop
// function must be called (normally deferred) to release the timer; it
// is a no-op when the injection is disabled.
func (in *Injector) Context(ctx context.Context) (context.Context, context.CancelFunc) {
	if in == nil || in.cfg.CancelAfter <= 0 {
		return ctx, func() {}
	}
	ctx, cancel := context.WithCancel(ctx)
	t := time.AfterFunc(in.cfg.CancelAfter, cancel)
	return ctx, func() {
		t.Stop()
		cancel()
	}
}
