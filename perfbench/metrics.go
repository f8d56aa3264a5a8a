package main

import (
	"fmt"
)

// metricDef declares one reported metric; BENCHMARK.json repeats these
// declarations and the self-tests hold the two equal.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics a user of the program sees, measured with
// tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"op_s_p50", "s", "lower"},
	{"op_s_p90", "s", "lower"},
	{"dof_updates_per_s", "1/s", "higher"},
	{"mem_peak_mb", "MB", "lower"},
	{"ok_frac", "ratio", "higher"},
}

// perLayer are the traced run's metrics, named after the modules they
// measure.
var perLayer = []metricDef{
	{"sem.deriv_gflops", "GFLOP/s", "higher"},
	{"sem.face_gbps", "GB/s", "higher"},
	{"sem.flops_per_op", "count", "lower"},
	{"solver.step_s", "s", "lower"},
	{"solver.stabledt_s", "s", "lower"},
	{"gs.op_s", "s", "lower"},
	{"gs.setup_s", "s", "lower"},
	{"gs.shared_slots", "count", "lower"},
	{"gs.neighbors", "count", "lower"},
	{"comm.calls_per_op", "count", "lower"},
	{"comm.bytes_per_op", "B", "lower"},
	{"comm.mpi_wall_frac", "ratio", "lower"},
	{"comm.allreduce_s", "s", "lower"},
	{"comm.pingpong_s", "s", "lower"},
	{"tcptransport.mesh_s", "s", "lower"},
	{"netmodel.modeled_op_s", "s", "lower"},
	{"netmodel.compute_s_per_op", "s", "lower"},
	{"netmodel.comm_s_per_op", "s", "lower"},
	{"netmodel.wait_s_per_op", "s", "lower"},
	{"pool.chunks_per_op", "count", "lower"},
	{"pool.steals_per_op", "count", "higher"},
	{"nekbone.ax_s", "s", "lower"},
	{"nekbone.dssum_s", "s", "lower"},
	{"nekbone.glsc2_s", "s", "lower"},
	{"nekbone.residual_ratio", "ratio", "lower"},
	{"go.allocs_per_op", "count", "lower"},
	{"go.gc_per_op", "count", "lower"},
	{"obs.trace_overhead_frac", "ratio", "lower"},
	{"trace.explained_frac", "ratio", "higher"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// summarize turns a measurement into the declared metrics: the
// end-to-end set, or with traced the per-layer set. A metric that
// cannot be computed makes the run incorrect.
func summarize(w workload, m *measurement, traced bool) result {
	res := result{Metrics: map[string]metricValue{}}
	values := map[string]float64{}
	if traced {
		values = m.layers
		if err := tracedSummary(w, m); err != nil {
			m.failAll("%v", err)
		}
	} else {
		if err := endToEndSummary(w, m, values); err != nil {
			m.failAll("%v", err)
		}
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			m.failAll("metric %s was not measured", d.name)
			continue
		}
		res.Metrics[d.name] = metricValue{v, d.unit}
	}
	res.Attempted, res.Failed = max(m.attempted, 1), m.failed
	res.Correct = m.failed == 0 && len(m.problems) == 0
	return res
}

// window is the number of consecutive timed ops the tail and the
// throughput are computed over: the smallest count whose p90 has ten
// samples beyond it, and a whole number of blocks.
const window = 100

// timedWindow is one window of timed ops and the share of the machine's
// CPU time the hypervisor stole while it ran.
type timedWindow struct {
	ops   []float64
	steal float64
}

// calmWindows cuts the timed ops into windows and returns the calmer
// ones: those in which the hypervisor stole no more of the machine's
// CPU time than in the median window, at least half of them. Steal is
// load from outside the machine that slows every op it overlaps; the
// selection never looks at the op times. Where steal is not reported
// every window is returned.
func calmWindows(opTimes []float64, cpu []cpuSample) (calm, all []timedWindow) {
	wins := windows(opTimes, window)
	all = make([]timedWindow, len(wins))
	perWindow := window / blockOps
	known := len(cpu) == len(opTimes)/blockOps+1 && len(opTimes)%blockOps == 0
	for i, ops := range wins {
		all[i].ops = ops
		lo, hi := i*perWindow, (i+1)*perWindow
		if i == len(wins)-1 {
			hi = len(cpu) - 1
		}
		if known {
			known = cpu[lo].ok && cpu[hi].ok
			all[i].steal = stealShare(cpu[lo], cpu[hi])
		}
	}
	if !known {
		return all, all
	}
	shares := make([]float64, len(all))
	for i, win := range all {
		shares[i] = win.steal
	}
	limit := median(shares)
	for _, win := range all {
		if win.steal <= limit {
			calm = append(calm, win)
		}
	}
	return calm, all
}

func endToEndSummary(w workload, m *measurement, values map[string]float64) error {
	if len(m.opTimes) < window {
		return fmt.Errorf("%d timed ops, need %d", len(m.opTimes), window)
	}
	calm, all := calmWindows(m.opTimes, m.cpu)
	var ops, tails, rates, calmSteal, allSteal []float64
	for _, win := range calm {
		tail, err := percentile(win.ops, p90)
		if err != nil {
			return fmt.Errorf("op_s_p90: %w", err)
		}
		ops = append(ops, win.ops...)
		tails = append(tails, tail)
		rates = append(rates, w.rate(win.ops))
		calmSteal = append(calmSteal, win.steal)
	}
	for _, win := range all {
		allSteal = append(allSteal, win.steal)
	}
	tail, err := percentile(m.opTimes, p90)
	if err != nil {
		return fmt.Errorf("op_s_p90: %w", err)
	}
	m.notes = append(m.notes,
		fmt.Sprintf("timing from the %d calmer of %d windows of %d ops (CPU steal: median %.1f%% in all windows, at most %.1f%% in those used)",
			len(calm), len(all), window, 100*median(allSteal), 100*sorted(calmSteal)[len(calmSteal)-1]),
		fmt.Sprintf("over all %d timed ops: p50 %.6g s, p90 %.6g s, %.6g 1/s",
			len(m.opTimes), median(m.opTimes), tail, w.rate(m.opTimes)))
	values["setup_s"] = median(m.setup)
	values["op_s_p50"] = median(ops)
	values["op_s_p90"] = median(tails)
	values["dof_updates_per_s"] = median(rates)
	values["mem_peak_mb"] = m.peakMB
	values["ok_frac"] = 1 - float64(m.failed)/float64(max(m.attempted, 1))
	return nil
}

// tracedSummary adds the metrics computed from the whole traced run:
// the span medians, the tracing overhead and the explained share.
func tracedSummary(w workload, m *measurement) error {
	if len(m.tracedTimes) == 0 || len(m.opTimes) == 0 {
		return fmt.Errorf("no timed ops")
	}
	tracedP50 := median(m.tracedTimes)
	m.layers["obs.trace_overhead_frac"] = tracedP50/median(m.opTimes) - 1
	m.layers["trace.explained_frac"] = explainedFrac(w, m.layers, tracedP50)
	if w.kind == kindEuler {
		m.layers["solver.step_s"] = median(m.tr.durations("solver.Step"))
		m.layers["solver.stabledt_s"] = median(m.tr.durations("solver.StableDt"))
	}
	return nil
}
