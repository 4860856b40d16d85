package main

import (
	"math"

	"repro/internal/core"
)

// paperTe is the paper's Table 4: roundtrip latency Te in µs measured on
// the DEC 3000/600, per stack and version. It is the only reference for
// absolute simulated numbers; the paper has none for other machines, so
// simulated results there (opt_tp_us on future266, line128 and modern)
// are unvalidated model output.
var paperTe = map[core.StackKind]map[core.Version]float64{
	core.StackTCPIP: {core.BAD: 498.8, core.STD: 351.0, core.OUT: 336.1, core.CLO: 325.5, core.PIN: 317.1, core.ALL: 310.8},
	core.StackRPC:   {core.BAD: 457.1, core.STD: 399.2, core.OUT: 394.6, core.CLO: 383.1, core.PIN: 367.3, core.ALL: 365.5},
}

// paperErrPct is the mean |simulated Te − paper Te| / paper Te, in percent,
// over the given dec3000 cells.
func paperErrPct(te map[cellKey]float64) float64 {
	var sum float64
	n := 0
	for _, k := range sortedCellKeys(te) {
		ref := paperTe[k.stack][k.version]
		sum += math.Abs(te[k]-ref) / ref
		n++
	}
	if n == 0 {
		return 0
	}
	return 100 * sum / float64(n)
}
