package engine

// OpSeen is one held-base count, fan member or collapsed count as the
// executor ran it: the op and its operands (see seenOp's fields).
type OpSeen = seenOp

// SeeOps hands every held-base count, fan member and collapsed count to
// see, from the worker that ran it, until stop is called. Calls with one
// worker ID never overlap. Passes must not run while it is set or cleared.
func SeeOps(see func(OpSeen)) (stop func()) {
	seen = see
	return func() { seen = nil }
}
