package engine

import (
	"context"
	"errors"
	"fmt"

	"morphing/internal/graph"
	"morphing/internal/pattern"
)

// Typed interruption sentinels. Both wrap the corresponding context
// error, so errors.Is works in either vocabulary:
//
//	errors.Is(err, engine.ErrCanceled)      // engine-level check
//	errors.Is(err, context.Canceled)        // context-level check
//
// Partial-result contract: when an executor returns one of these (or a
// *PanicError), the count/Stats values returned alongside are valid
// partial results — everything the workers counted before the abort took
// effect at their next poll point (a work-block claim, or the execution of a
// trie node that is not a leaf), so lower bounds. Callers that cannot use
// partials must discard them explicitly; the executors never return
// garbage with a typed interruption error.
var (
	// ErrCanceled reports cooperative cancellation of a run; counts and
	// stats returned with it are valid partials.
	ErrCanceled = fmt.Errorf("engine: run canceled (results are partial): %w", context.Canceled)
	// ErrDeadlineExceeded reports that a run's context deadline expired;
	// counts and stats returned with it are valid partials.
	ErrDeadlineExceeded = fmt.Errorf("engine: deadline exceeded (results are partial): %w", context.DeadlineExceeded)
)

// CtxErr maps ctx's failure state onto the engine's typed sentinels:
// nil while the context is live, ErrDeadlineExceeded after its deadline
// passed, ErrCanceled for any other cancellation.
func CtxErr(ctx context.Context) error {
	switch ctx.Err() {
	case nil:
		return nil
	case context.DeadlineExceeded:
		return ErrDeadlineExceeded
	default:
		return ErrCanceled
	}
}

// PanicError reports a panic recovered inside an executor worker —
// almost always thrown by a user-supplied Visitor/UDF. The executor
// recovers it, aborts the sibling workers at their next poll point,
// and surfaces exactly one PanicError (the first panic wins) instead of
// crashing the process. Counts returned alongside are valid partials.
type PanicError struct {
	// Worker is the executor worker ID that recovered the panic.
	Worker int
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack (runtime/debug.Stack).
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("engine: worker %d: panic in visitor/UDF: %v", e.Worker, e.Value)
}

// Unwrap exposes a wrapped error panic value (panic(err) inside a UDF)
// to errors.Is/As chains.
func (e *PanicError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// Interrupted reports whether err is a typed interruption — cooperative
// cancellation, deadline expiry, or a contained worker panic — i.e.
// whether the values returned alongside it are valid partial results.
// Plan/validation errors and other hard failures return false.
func Interrupted(err error) bool {
	var pe *PanicError
	return errors.Is(err, ErrCanceled) ||
		errors.Is(err, ErrDeadlineExceeded) ||
		errors.As(err, &pe)
}

// CtxEngine is the optional context-aware superset of Engine. All four
// engine models implement it (Model); the Ctx methods honor cooperative
// cancellation at the executor's poll points and follow the
// partial-result contract above. CountAllCtx additionally guarantees
// that on interruption the returned slice holds each pattern's partial
// count (zero for patterns not yet started).
//
// Engine itself stays unchanged so existing call sites and third-party
// implementations keep compiling; use the package-level CountCtx /
// CountAllCtx / MatchCtx helpers to dispatch against any Engine.
type CtxEngine interface {
	Engine
	CountCtx(ctx context.Context, g graph.Adjacency, p *pattern.Pattern) (uint64, *Stats, error)
	CountAllCtx(ctx context.Context, g graph.Adjacency, ps []*pattern.Pattern) ([]uint64, *Stats, error)
	MatchCtx(ctx context.Context, g graph.Adjacency, p *pattern.Pattern, visit Visitor) (*Stats, error)
}

// CountCtx runs e.Count under ctx when e implements CtxEngine. For plain
// engines it degrades gracefully: the context is checked before and
// after the (uninterruptible) run, so a pre-expired context never starts
// work and an expiry during the run is still reported — just without
// mid-run cancellation.
func CountCtx(ctx context.Context, e Engine, g graph.Adjacency, p *pattern.Pattern) (uint64, *Stats, error) {
	if ce, ok := e.(CtxEngine); ok {
		return ce.CountCtx(ctx, g, p)
	}
	if err := CtxErr(ctx); err != nil {
		return 0, nil, err
	}
	c, st, err := e.Count(g, p)
	if err == nil {
		err = CtxErr(ctx)
	}
	return c, st, err
}

// CountAllCtx runs e.CountAll under ctx; see CountCtx for the plain
// Engine fallback semantics.
func CountAllCtx(ctx context.Context, e Engine, g graph.Adjacency, ps []*pattern.Pattern) ([]uint64, *Stats, error) {
	if ce, ok := e.(CtxEngine); ok {
		return ce.CountAllCtx(ctx, g, ps)
	}
	if err := CtxErr(ctx); err != nil {
		return nil, nil, err
	}
	counts, st, err := e.CountAll(g, ps)
	if err == nil {
		err = CtxErr(ctx)
	}
	return counts, st, err
}

// MatchCtx runs e.Match under ctx; see CountCtx for the plain Engine
// fallback semantics.
func MatchCtx(ctx context.Context, e Engine, g graph.Adjacency, p *pattern.Pattern, visit Visitor) (*Stats, error) {
	if ce, ok := e.(CtxEngine); ok {
		return ce.MatchCtx(ctx, g, p, visit)
	}
	if err := CtxErr(ctx); err != nil {
		return nil, err
	}
	st, err := e.Match(g, p, visit)
	if err == nil {
		err = CtxErr(ctx)
	}
	return st, err
}
