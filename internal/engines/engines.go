// Package engines is the one name → engine model table: the library's
// NewEngine, morphcli's -engine flag and morphd's per-request engine
// choice all resolve names here.
package engines

import (
	"fmt"
	"strings"

	"morphing/internal/autozero"
	"morphing/internal/bigjoin"
	"morphing/internal/engine"
	"morphing/internal/graphpi"
	"morphing/internal/obs"
	"morphing/internal/peregrine"
)

// List names the engine models New accepts, as flag help and error
// messages print them.
const List = "peregrine, autozero, graphpi, bigjoin"

// Names is List as a slice.
func Names() []string { return strings.Split(List, ", ") }

// New constructs the named engine model (case-insensitive) with the given
// worker count (<= 0: GOMAXPROCS) and observer (nil: obs.Default()).
func New(name string, threads int, o *obs.Observer) (engine.Engine, error) {
	switch strings.ToLower(name) {
	case "peregrine":
		return &peregrine.Engine{Threads: threads, Obs: o}, nil
	case "autozero":
		return &autozero.Engine{Threads: threads, Obs: o}, nil
	case "graphpi":
		return &graphpi.Engine{Threads: threads, Obs: o}, nil
	case "bigjoin":
		return &bigjoin.Engine{Threads: threads, Obs: o}, nil
	}
	return nil, fmt.Errorf("unknown engine %q (want %s)", name, List)
}
