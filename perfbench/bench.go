package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"runtime"
	"sort"
	"syscall"
	"time"

	"repro/internal/comm"
)

const (
	// refOps warm-up ops open every timed run; each is checked bit for
	// bit against the reference run and none is timed.
	refOps = 3
	// blockOps ops run between the stop checks of the timed loop.
	blockOps = 10
	// setupReps is how many times a run builds the workload; setup_s
	// is the median, and the last build runs the ops.
	setupReps = 31
	// p90 is the tail percentile reported.
	p90 = 0.9
)

// measurement is what rank 0 observes in one run of one workload.
type measurement struct {
	setup   []float64 // per setup repetition
	mesh    []float64 // TCP mesh formation per repetition
	opTimes []float64 // untraced timed ops
	// cpu is sampled at the start of the timed loop and after every
	// block, so each window of opTimes has a steal share.
	cpu         []cpuSample
	tracedTimes []float64 // traced timed ops (trace runs only)
	attempted   int
	failed      int
	problems    []string
	notes       []string // printed with the metrics
	peakMB      float64
	layers      map[string]float64 // per-layer metrics (trace runs only)
	tr          *tracer
}

func (m *measurement) problem(format string, args ...any) {
	m.problems = append(m.problems, fmt.Sprintf(format, args...))
}

// failAll marks every attempted op failed (at least one), for checks
// that cover the whole run and for runs that stopped with an error.
func (m *measurement) failAll(format string, args ...any) {
	m.problem(format, args...)
	m.attempted = max(m.attempted, 1)
	m.failed = m.attempted
}

// measure runs one workload: the reference run, setupReps builds (the
// last of which runs the timed loop for at least the given time and
// one window of ops) and, when traced, the layer probes.
func measure(w workload, in inputs, seconds time.Duration, traced bool) *measurement {
	m := &measurement{}
	if traced {
		m.tr = newTracer()
		m.layers = map[string]float64{}
	}
	ref, err := referenceFingerprints(w, in)
	if err != nil {
		m.failAll("reference run: %v", err)
		return m
	}
	for rep := 0; rep < setupReps; rep++ {
		var body func(*comm.Rank, app) error
		if rep == setupReps-1 {
			body = m.loop(w, in, ref, seconds)
		}
		setup, mesh, err := session(w, in, m.tr, body)
		if err != nil {
			m.failAll("run: %v", err)
			return m
		}
		m.setup = append(m.setup, setup)
		m.mesh = append(m.mesh, mesh)
	}
	if traced {
		if err := standaloneProbes(w, m); err != nil {
			m.failAll("probes: %v", err)
		}
	}
	m.peakMB = peakRSSMB()
	return m
}

// session builds the workload on a fresh communicator and, when body is
// non-nil, runs it. setup is rank 0's wall time from the call until
// every rank has finished construction.
func session(w workload, in inputs, t *tracer, body func(*comm.Rank, app) error) (setup, mesh float64, err error) {
	runtime.GC() // start every build from a collected heap
	start := time.Now()
	endSetup := t.begin("setup")
	onMesh := func(s, e time.Time) { t.add("tcptransport.New", s, e) }
	mesh, err = runWorld(w.ranks, w.tcp, w.commOptions(), onMesh, func(r *comm.Rank) error {
		var rt *tracer
		if r.ID() == 0 {
			rt = t
		}
		a, err := newApp(r, w, in, rt)
		if err != nil {
			return err
		}
		defer a.close()
		r.Barrier()
		if r.ID() == 0 {
			setup = time.Since(start).Seconds()
			endSetup()
		}
		if body == nil {
			return nil
		}
		return body(r, a)
	})
	return setup, mesh, err
}

// referenceFingerprints runs the first refOps ops of w on the plain path
// and returns the global state fingerprint after each.
func referenceFingerprints(w workload, in inputs) ([]uint64, error) {
	rw := w.reference()
	fps := make([]uint64, refOps)
	_, err := runWorld(rw.ranks, false, rw.commOptions(), nil, func(r *comm.Rank) error {
		a, err := newApp(r, rw, in, nil)
		if err != nil {
			return err
		}
		defer a.close()
		for k := range fps {
			a.op()
			if fp := globalFingerprint(r, a); r.ID() == 0 {
				fps[k] = fp
			}
		}
		return nil
	})
	return fps, err
}

// globalFingerprint combines every rank's state fingerprint in rank
// order. Collective.
func globalFingerprint(r *comm.Rank, a app) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range r.AllgatherInts(int64(a.fingerprint())) {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	return h.Sum64()
}

// loop returns the timed body of the last session: the checked warm-up
// ops, then blocks of timed ops until both the time budget and one
// window of untraced ops are reached, then the whole-run checks and,
// when traced, the probes.
func (m *measurement) loop(w workload, in inputs, ref []uint64, seconds time.Duration) func(*comm.Rank, app) error {
	return func(r *comm.Rank, a app) error {
		lead := r.ID() == 0
		var t *tracer
		if lead {
			t = m.tr
		}
		traced := m.tr != nil
		a.begin()
		ops := 0
		for k, want := range ref {
			a.op()
			ops++
			if got := globalFingerprint(r, a); lead {
				m.attempted++
				if got != want {
					m.failed++
					m.problem("op %d: state fingerprint %016x differs from the reference %016x", k, got, want)
				}
			}
		}
		var c *counters
		if traced {
			c = newCounters(r, a)
		}
		r.Barrier()
		if lead {
			runtime.GC() // the timed ops start from a collected heap
		}
		r.Barrier()
		if lead {
			m.cpu = append(m.cpu, readCPU())
		}
		start := time.Now()
		for block := 0; ; block++ {
			c.blockStart()
			for b := 0; b < blockOps; b++ {
				tracedOp := traced && ops%2 == 1
				c.opStart()
				t0 := time.Now()
				if tracedOp {
					t.setOp(ops)
					end := t.begin("op")
					a.tracedOp(t)
					end()
					t.setOp(-1)
				} else {
					a.op()
				}
				d := time.Since(t0).Seconds()
				c.opEnd(d)
				ops++
				if lead {
					m.attempted++
					if tracedOp {
						m.tracedTimes = append(m.tracedTimes, d)
					} else {
						m.opTimes = append(m.opTimes, d)
					}
				}
			}
			c.blockEnd(block == 0)
			if lead {
				m.cpu = append(m.cpu, readCPU())
			}
			stop := []int64{0}
			if lead && time.Since(start) >= seconds && len(m.opTimes) >= window {
				stop[0] = 1
			}
			if r.BcastInts(0, stop)[0] != 0 {
				break
			}
		}
		err := a.check(ops)
		bad := int64(0)
		if err != nil {
			bad = 1
		}
		if r.AllreduceInts(comm.OpMax, []int64{bad})[0] != 0 && lead {
			if err == nil {
				err = fmt.Errorf("a whole-run check failed on another rank")
			}
			m.failAll("%v", err)
		}
		if !traced {
			return nil
		}
		c.finish(m.layers)
		return runProbes(r, w, in, a, t, m.layers)
	}
}

// peakRSSMB is the process's peak resident set in MB. Each workload
// runs in a process of its own, so it holds no other workload's memory.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// counters accumulates rank 0's exact per-op counts over the timed loop
// of a traced run. All methods are no-ops on a nil receiver and on
// ranks other than 0, except blockEnd's first-block collective, which
// every rank joins.
type counters struct {
	r    *comm.Rank
	a    app
	lead bool

	ops               int
	opWall            float64
	calls, bytes      int64
	mpiWall           float64
	flops             int64
	chunks, steals    int64
	mallocs, gcs      uint64
	memOps            int
	profStart         map[string]int64
	before            comm.OpTotals
	flopsBefore       int64
	chunks0, steals0  int64
	mem0              runtime.MemStats
	blockOps0         int
	vt0               float64
	split0            netSnapshot
	modeledOp         float64
	computeOp, commOp float64
	waitOp            float64
}

func newCounters(r *comm.Rank, a app) *counters {
	c := &counters{r: r, a: a, lead: r.ID() == 0}
	if c.lead {
		c.profStart = profCalls(a)
	}
	return c
}

func (c *counters) blockStart() {
	if c == nil {
		return
	}
	c.vt0 = c.r.Clock().Now()
	c.split0 = takeNetSnapshot(c.r)
	if c.lead {
		runtime.ReadMemStats(&c.mem0)
		c.blockOps0 = c.ops
	}
}

func (c *counters) opStart() {
	if c == nil || !c.lead {
		return
	}
	c.before = c.r.Profile().Totals()
	c.flopsBefore = c.a.flops()
	ps := c.a.pool().Stats()
	c.chunks0, c.steals0 = ps.Chunks, ps.Steals
}

func (c *counters) opEnd(wall float64) {
	if c == nil || !c.lead {
		return
	}
	after := c.r.Profile().Totals()
	c.calls += after.Calls - c.before.Calls
	c.bytes += after.BytesSent - c.before.BytesSent
	c.mpiWall += after.Wall - c.before.Wall
	c.flops += c.a.flops() - c.flopsBefore
	ps := c.a.pool().Stats()
	c.chunks += ps.Chunks - c.chunks0
	c.steals += ps.Steals - c.steals0
	c.opWall += wall
	c.ops++
}

// blockEnd closes a block. After the first block every rank reports its
// virtual-clock advance, so the modeled metrics come from the same
// fixed ops in every run of a seed.
func (c *counters) blockEnd(first bool) {
	if c == nil {
		return
	}
	if first {
		n := float64(blockOps)
		adv := c.r.Allgather([]float64{c.r.Clock().Now() - c.vt0})
		for _, v := range adv {
			c.modeledOp = max(c.modeledOp, v/n)
		}
		d := takeNetSnapshot(c.r).minus(c.split0)
		c.computeOp, c.commOp, c.waitOp = d.compute/n, d.modeled/n, d.wait/n
	}
	if c.lead {
		var mem runtime.MemStats
		runtime.ReadMemStats(&mem)
		c.mallocs += mem.Mallocs - c.mem0.Mallocs
		c.gcs += uint64(mem.NumGC - c.mem0.NumGC)
		c.memOps += c.ops - c.blockOps0
	}
}

// finish writes the per-op counts into layers.
func (c *counters) finish(layers map[string]float64) {
	if c == nil || !c.lead || c.ops == 0 {
		return
	}
	n := float64(c.ops)
	layers["sem.flops_per_op"] = float64(c.flops) / n
	layers["comm.calls_per_op"] = float64(c.calls) / n
	layers["comm.bytes_per_op"] = float64(c.bytes) / n
	layers["comm.mpi_wall_frac"] = c.mpiWall / c.opWall
	layers["pool.chunks_per_op"] = float64(c.chunks) / n
	layers["pool.steals_per_op"] = float64(c.steals) / n
	layers["go.allocs_per_op"] = float64(c.mallocs) / float64(c.memOps)
	layers["go.gc_per_op"] = float64(c.gcs) / float64(c.memOps)
	layers["netmodel.modeled_op_s"] = c.modeledOp
	layers["netmodel.compute_s_per_op"] = c.computeOp
	layers["netmodel.comm_s_per_op"] = c.commOp
	layers["netmodel.wait_s_per_op"] = c.waitOp
	end := profCalls(c.a)
	for name, v := range end {
		layers[profKey+name] = float64(v-c.profStart[name]) / n
	}
}

// profKey prefixes the internal per-op region call counts kept in the
// layer map for the explained-time reconstruction; they are not emitted.
const profKey = "internal.prof_calls_per_op:"

// netSnapshot is one rank's modeled time split at an instant.
type netSnapshot struct{ compute, modeled, wait float64 }

func takeNetSnapshot(r *comm.Rank) netSnapshot {
	var s netSnapshot
	splits := r.Clock().PhaseSplits()
	names := make([]string, 0, len(splits))
	for name := range splits {
		names = append(names, name)
	}
	sort.Strings(names) // a fixed summation order keeps the sum bit-reproducible
	for _, name := range names {
		s.compute += splits[name].Compute
	}
	tot := r.Profile().Totals()
	s.modeled, s.wait = tot.Modeled, tot.Wait
	return s
}

func (s netSnapshot) minus(o netSnapshot) netSnapshot {
	return netSnapshot{s.compute - o.compute, s.modeled - o.modeled, s.wait - o.wait}
}

// profCalls returns the program's own region call counts.
func profCalls(a app) map[string]int64 {
	out := map[string]int64{}
	for _, st := range a.prof().Flat() {
		out[st.Name] = st.Calls
	}
	return out
}
