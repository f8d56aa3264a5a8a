package main

import (
	"time"

	"repro/internal/comm"
	"repro/internal/gs"
	"repro/internal/netmodel"
	"repro/internal/sem"
	"repro/internal/solver"
)

const (
	// probeReps is how often a timed probe call repeats; the median
	// is kept.
	probeReps = 31
	// setupProbeReps repeats the slower set-up probes (gs.Setup, TCP
	// mesh formation).
	setupProbeReps = 7
	// stepProbeReps repeats a whole solver step (Nekbone workload only).
	stepProbeReps = 11
	pingpongTag   = 0x7062
	// internalKey prefixes probe results kept only for the explained-time
	// reconstruction; they are not emitted.
	internalKey = "internal.probe_s:"
)

// timeRepeated calls f reps times on every rank, each call opened by a
// barrier, and returns this rank's median call time. Rank 0 records a
// span named name around each call.
func timeRepeated(r *comm.Rank, t *tracer, name string, reps int, f func()) float64 {
	ds := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		r.Barrier()
		end := t.begin(name)
		t0 := time.Now()
		f()
		ds = append(ds, time.Since(t0).Seconds())
		end()
	}
	return median(ds)
}

// runProbes times each layer's public calls on the workload's own data
// after the timed loop: its N and element count, rank 0's fields, the
// workload's gather-scatter handle and ids. Collective; rank 0 writes
// the results into layers.
func runProbes(r *comm.Rank, w workload, in inputs, a app, t *tracer, layers map[string]float64) error {
	set := func(k string, v float64) {
		if r.ID() == 0 {
			layers[k] = v
		}
	}
	n, nel := w.n, w.nelLocal()
	ref, field := a.data()
	p := a.pool()
	scratch := make([]float64, len(field))

	var flops int64
	tDeriv := 0.0
	for d := sem.DirR; d <= sem.DirT; d++ {
		var ops sem.OpCount
		td := timeRepeated(r, t, "probe.sem.Deriv", probeReps, func() {
			ops = sem.DerivPool(p, d, sem.Optimized, ref, field, scratch, nel)
		})
		flops += flopsOf(ops)
		tDeriv += td
		set(internalKey+"ax_deriv_"+d.String(), td)
	}
	set("sem.deriv_gflops", float64(flops)/tDeriv/1e9)

	faces := make([]float64, sem.FaceSliceLen(n, nel))
	var ext, add sem.OpCount
	tExt := timeRepeated(r, t, "probe.sem.Full2Face", probeReps, func() {
		ext = sem.Full2FacePool(p, n, field, nel, faces)
	})
	tAdd := timeRepeated(r, t, "probe.sem.Face2FullAdd", probeReps, func() {
		add = sem.Face2FullAddPool(p, n, faces, nel, scratch)
	})
	moved := ext.Load + ext.Store + add.Load + add.Store
	set("sem.face_gbps", float64(8*moved)/(tExt+tAdd)/1e9)
	set(internalKey+"full2face", tExt)
	set(internalKey+"face2fulladd", tAdd)

	g, ids := a.gsHandle(), a.gsIDs()
	vec := make([]float64, len(ids))
	set("gs.op_s", timeRepeated(r, t, "probe.gs.Op", probeReps, func() {
		g.OpWith(vec, comm.OpSum, g.Method())
	}))
	set("gs.setup_s", timeRepeated(r, t, "probe.gs.Setup", setupProbeReps, func() {
		gs.Setup(r, ids)
	}))
	set("gs.shared_slots", float64(g.SharedSlots()))
	set("gs.neighbors", float64(len(g.Neighbors())))

	one := []float64{1}
	set("comm.allreduce_s", timeRepeated(r, t, "probe.comm.Allreduce", 4*probeReps, func() {
		one[0] = 1
		r.Allreduce(comm.OpSum, one)
	}))
	if r.Size() >= 2 {
		set("comm.pingpong_s", pingpong(r, t, faceMsgLen(w)))
	}

	// The layer of the other mini-app, probed at this workload's shape.
	if w.kind == kindEuler {
		pw := w
		pw.kind, pw.cgIters, pw.cgReduction = kindNekbone, cgIters, cgReduction
		na, err := newNekApp(r, pw, in, t)
		if err != nil {
			return err
		}
		na.begin()
		na.op()
		nekProbes(r, t, na, set)
		return nil
	}
	na := a.(*nekApp)
	nekProbes(r, t, na, set)

	ew := w
	ew.kind, ew.workers = kindEuler, 1
	ea, err := newEulerApp(r, ew, in, t)
	if err != nil {
		return err
	}
	defer ea.close()
	set("solver.stabledt_s", timeRepeated(r, t, "probe.solver.StableDt", probeReps, func() {
		ea.s.StableDt()
	}))
	dt := ea.s.StableDt()
	set("solver.step_s", timeRepeated(r, t, "probe.solver.Step", stepProbeReps, func() {
		ea.s.Step(dt)
	}))
	return nil
}

// nekProbes times Nekbone's operator, dssum and inner product on na and
// reports the residual reduction of na's last solve.
func nekProbes(r *comm.Rank, t *tracer, na *nekApp, set func(string, float64)) {
	set("nekbone.residual_ratio", na.ratio())
	u := append([]float64(nil), na.f...)
	w := make([]float64, len(u))
	set("nekbone.ax_s", timeRepeated(r, t, "probe.nekbone.Ax", probeReps, func() { na.s.Ax(u, w) }))
	set("nekbone.dssum_s", timeRepeated(r, t, "probe.nekbone.DSSum", probeReps, func() { na.s.DSSum(w) }))
	set("nekbone.glsc2_s", timeRepeated(r, t, "probe.nekbone.GLSC2", probeReps, func() { na.s.GLSC2(u, u) }))
}

// faceMsgLen is the length of one face message: one field's values on
// the N^2-point faces of one side of a rank's element block.
func faceMsgLen(w workload) int { return w.n * w.n * w.elems * w.elems }

// pingpong returns half of rank 0's median round trip of an n-value
// message between ranks 0 and 1. Collective.
func pingpong(r *comm.Rank, t *tracer, n int) float64 {
	msg := make([]float64, n)
	return timeRepeated(r, t, "probe.comm.PingPong", probeReps, func() {
		switch r.ID() {
		case 0:
			r.Send(1, pingpongTag, msg)
			r.Recv(1, pingpongTag)
		case 1:
			r.Recv(0, pingpongTag)
			r.Send(0, pingpongTag, msg)
		}
	}) / 2
}

// standaloneProbes measures, outside the workload's communicator, the
// layers a workload has no instance of: the point-to-point path of a
// 1-rank workload (on a 2-rank in-process communicator) and TCP mesh
// formation of an in-process workload (a 2-rank 127.0.0.1 mesh).
func standaloneProbes(w workload, m *measurement) error {
	opts := comm.Options{Model: netmodel.QDR}
	if w.ranks < 2 {
		_, err := runWorld(2, false, opts, nil, func(r *comm.Rank) error {
			var t *tracer
			if r.ID() == 0 {
				t = m.tr
			}
			if v := pingpong(r, t, faceMsgLen(w)); r.ID() == 0 {
				m.layers["comm.pingpong_s"] = v
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	if w.tcp {
		m.layers["tcptransport.mesh_s"] = median(m.mesh)
		return nil
	}
	var mesh []float64
	for i := 0; i < setupProbeReps; i++ {
		onMesh := func(s, e time.Time) { m.tr.add("probe.tcptransport.New", s, e) }
		d, err := runWorld(2, true, opts, onMesh, func(*comm.Rank) error { return nil })
		if err != nil {
			return err
		}
		mesh = append(mesh, d)
	}
	m.layers["tcptransport.mesh_s"] = median(mesh)
	return nil
}

// explainedFrac reconstructs rank 0's per-op busy time from the probes'
// per-call times and the program's exact per-op region call counts,
// as a share of the traced op median. Regions without a probe (the
// pointwise passes) are the unexplained remainder.
func explainedFrac(w workload, layers map[string]float64, tracedP50 float64) float64 {
	calls := func(region string) float64 { return layers[profKey+region] }
	var busy float64
	if w.kind == kindNekbone {
		// Ax includes its dssum; GLSC2 includes its allreduce.
		busy = calls("ax")*layers["nekbone.ax_s"] + calls("glsc")*layers["nekbone.glsc2_s"]
		return busy / tracedP50
	}
	for d := sem.DirR; d <= sem.DirT; d++ {
		name := "ax_deriv_" + d.String()
		busy += calls(name) * layers[internalKey+name]
	}
	// Each full2face_cmt region extracts every field; each gs_op region
	// exchanges the state and flux traces of every field; each
	// numerical_flux region adds every field's surface flux back.
	busy += calls("full2face_cmt") * solver.NumFields * layers[internalKey+"full2face"]
	busy += calls("gs_op") * 2 * solver.NumFields * layers["gs.op_s"]
	busy += calls("numerical_flux") * solver.NumFields * layers[internalKey+"face2fulladd"]
	busy += calls("wave_speed") * layers["comm.allreduce_s"]
	return busy / tracedP50
}
