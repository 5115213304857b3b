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
// almost always thrown by a user-supplied sink (a UDF), or a read of an
// mmap-backed graph whose file changed under it (Value then wraps
// graph.ErrMappingFault). The executor recovers it, aborts the sibling
// workers at their next poll point, and surfaces exactly one PanicError
// (the first panic wins) instead of crashing the process. Counts returned
// alongside are valid partials.
type PanicError struct {
	// Worker is the executor worker ID that recovered the panic, -1 when
	// the caller's goroutine did (core.Runner contains mapping faults of
	// its own reads the same way).
	Worker int
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack (runtime/debug.Stack).
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("engine: worker %d: panic: %v", e.Worker, e.Value)
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

// CountAllCtx is e.CountAllCtx(ctx, g, ps): the spelling the repository
// benchmark's untrie'd replay calls.
func CountAllCtx(ctx context.Context, e Engine, g graph.Adjacency, ps []*pattern.Pattern) ([]uint64, *Stats, error) {
	return e.CountAllCtx(ctx, g, ps)
}
