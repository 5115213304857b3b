package costmodel

import "morphing/internal/plan"

// NodePaths is nodePaths for the external tests.
var NodePaths = nodePaths

// BaseAt is the level once per binding of which Levels charges level i of
// pl a base build, 0 when it charges none; it reads the ops Levels reads.
func BaseAt(pl *plan.Plan, i int) int {
	ops := pl.Counting
	if ops == nil {
		ops = pl.CountingOps(nil)
	}
	if k := callsOf(pl, i, &ops[i]); k.baseInter+k.baseDiff > 0 {
		return k.remade - 1
	}
	return 0
}
