package graph

import (
	"errors"
	"fmt"
	"runtime"
)

// ErrMappingFault reports a read of an mmap-backed graph that faulted: the
// file was truncated or its storage failed after Open, so pages the
// mapping promised are gone. Left alone such a read is a SIGBUS that kills
// the process; a goroutine that runs under debug.SetPanicOnFault panics
// instead, and MappingFault turns the recovered value into this error.
// The goroutines that read a graph for a query — the executor's workers,
// the runner's pipeline, the hot-row build — all do.
var ErrMappingFault = errors.New("graph: mapped file faulted (truncated or changed after Open)")

// MappingFault classifies a value recovered from a panic: the error
// wrapping ErrMappingFault when r is a memory fault that
// debug.SetPanicOnFault turned into a panic (or already is such an error,
// re-raised), nil for anything else.
func MappingFault(r any) error {
	if err, ok := r.(error); ok && errors.Is(err, ErrMappingFault) {
		return err
	}
	if _, ok := r.(runtime.Error); !ok {
		return nil
	}
	if f, ok := r.(interface{ Addr() uintptr }); ok {
		return fmt.Errorf("%w: fault at %#x", ErrMappingFault, f.Addr())
	}
	return nil
}
