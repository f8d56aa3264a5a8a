package obs

import "strings"

// Application phases: the coarse buckets critical-path attribution and
// the netmodel clock's per-phase accounting report against. They follow
// the mini-app's step anatomy — right-hand-side kernels, gather-scatter
// face exchanges, Runge-Kutta updates, the global reductions of the dt
// control, and the two subsystems that interrupt the step loop
// (rebalancing and fault recovery).
const (
	PhaseRHS       = "rhs"
	PhaseGS        = "gs-exchange"
	PhaseRK        = "rk"
	PhaseReduce    = "reduce"
	PhaseRebalance = "rebalance"
	PhaseRecovery  = "recovery"
	PhaseOther     = "other"
)

// Phases lists every phase label in reporting order.
var Phases = []string{PhaseRHS, PhaseGS, PhaseRK, PhaseReduce, PhaseRebalance, PhaseRecovery, PhaseOther}

// PhaseOf maps a region (by name and category) to its application
// phase. Container regions (CatStep) that merely bracket a whole step or
// solve return "" — the clock treats that as "keep the enclosing phase".
// The name mapping wins over the category fallback so subsystem regions
// recorded under generic categories (rebalance_migrate is CatComm,
// heartbeat is CatComm) land in their own phases.
func PhaseOf(name string, cat Category) string {
	switch name {
	case "rebalance_epoch", "rebalance_migrate", "loadbal_plan":
		return PhaseRebalance
	case "heartbeat", "auto_checkpoint", "recovery":
		return PhaseRecovery
	case "glmax", "glsum", "glsc":
		return PhaseReduce
	}
	if strings.HasPrefix(name, "gs_") {
		// gs_op, gs_setup, gs_autotune.
		return PhaseGS
	}
	switch cat {
	case CatStep:
		return "" // container: inner regions carry the phase
	case CatGS:
		return PhaseGS
	case CatRK:
		return PhaseRK
	case CatKernel:
		return PhaseRHS
	}
	return PhaseOther
}
