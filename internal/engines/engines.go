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

// models is the name table Check and New read.
var models = map[string]func(threads int, o *obs.Observer) engine.Engine{
	"peregrine": func(t int, o *obs.Observer) engine.Engine { return &peregrine.Engine{Threads: t, Obs: o} },
	"autozero":  func(t int, o *obs.Observer) engine.Engine { return &autozero.Engine{Threads: t, Obs: o} },
	"graphpi":   func(t int, o *obs.Observer) engine.Engine { return &graphpi.Engine{Threads: t, Obs: o} },
	"bigjoin":   func(t int, o *obs.Observer) engine.Engine { return &bigjoin.Engine{Threads: t, Obs: o} },
}

// Check returns the error New would for name, without building an engine.
func Check(name string) error {
	if models[strings.ToLower(name)] == nil {
		return fmt.Errorf("unknown engine %q (want %s)", name, List)
	}
	return nil
}

// New constructs the named engine model (case-insensitive) with the given
// worker count (<= 0: GOMAXPROCS) and observer (nil: obs.Default()).
func New(name string, threads int, o *obs.Observer) (engine.Engine, error) {
	if err := Check(name); err != nil {
		return nil, err
	}
	return models[strings.ToLower(name)](threads, o), nil
}
