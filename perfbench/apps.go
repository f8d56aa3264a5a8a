package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"math"

	"repro/internal/comm"
	"repro/internal/gs"
	"repro/internal/nekbone"
	"repro/internal/pool"
	"repro/internal/prof"
	"repro/internal/sem"
	"repro/internal/solver"
)

// app is one rank's instance of the program a workload drives. Methods
// marked collective must be called on every rank.
type app interface {
	op()                // one op (collective)
	tracedOp(t *tracer) // the same op with spans around its calls (collective)
	fingerprint() uint64
	// begin records the invariants the run must keep; check verifies
	// them after the last op (both collective).
	begin()
	check(ops int) error
	flops() int64
	// data is the reference element and the rank's field the kernel
	// probes run on.
	data() (*sem.Ref1D, []float64)
	pool() *pool.Pool
	prof() *prof.Profiler
	gsHandle() *gs.GS
	gsIDs() []int64
	close()
}

func newApp(r *comm.Rank, w workload, in inputs, t *tracer) (app, error) {
	if w.kind == kindNekbone {
		return newNekApp(r, w, in, t)
	}
	return newEulerApp(r, w, in, t)
}

// hashFloats folds the exact bits of every value into h.
func hashFloats(h io.Writer, xs []float64) {
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
}

func flopsOf(c sem.OpCount) int64 { return c.Mul + c.Add }

// eulerApp drives the CMT-bone Euler solver. An op is one AdvanceStep.
type eulerApp struct {
	s      *solver.Solver
	step   int
	m0, e0 float64
}

func newEulerApp(r *comm.Rank, w workload, in inputs, t *tracer) (*eulerApp, error) {
	end := t.begin("solver.New")
	s, err := solver.New(r, w.eulerConfig())
	end()
	if err != nil {
		return nil, fmt.Errorf("solver.New: %w", err)
	}
	s.SetInitial(in.initial())
	return &eulerApp{s: s}, nil
}

func (a *eulerApp) op() {
	a.s.AdvanceStep(a.step)
	a.step++
}

// tracedOp is AdvanceStep split into its public calls: the stable-dt
// reduction, the SSP-RK3 step and the simulated-time update.
func (a *eulerApp) tracedOp(t *tracer) {
	end := t.begin("solver.StableDt")
	dt := a.s.StableDt()
	end()
	end = t.begin("solver.Step")
	a.s.Step(dt)
	end()
	a.s.SetSimTime(a.s.SimTime() + dt)
	a.step++
}

func (a *eulerApp) fingerprint() uint64 {
	h := fnv.New64a()
	for c := range a.s.U {
		hashFloats(h, a.s.U[c])
	}
	return h.Sum64()
}

func (a *eulerApp) begin() {
	a.m0 = a.s.Integrate(solver.IRho)
	a.e0 = a.s.Integrate(solver.IEnergy)
}

// conservationTol is the relative change of the global mass and energy
// integrals one op may contribute by round-off; the run's bound grows
// linearly with its op count.
const conservationTol = 1e-14

func (a *eulerApp) check(ops int) error {
	m1 := a.s.Integrate(solver.IRho)
	e1 := a.s.Integrate(solver.IEnergy)
	tol := conservationTol * float64(max(ops, 1))
	if d := math.Abs(m1-a.m0) / math.Abs(a.m0); !(d <= tol) {
		return fmt.Errorf("mass not conserved over %d ops: %v -> %v (rel %.3g > %.3g)", ops, a.m0, m1, d, tol)
	}
	if d := math.Abs(e1-a.e0) / math.Abs(a.e0); !(d <= tol) {
		return fmt.Errorf("energy not conserved over %d ops: %v -> %v (rel %.3g > %.3g)", ops, a.e0, e1, d, tol)
	}
	return nil
}

func (a *eulerApp) flops() int64                  { return flopsOf(a.s.Ops) }
func (a *eulerApp) data() (*sem.Ref1D, []float64) { return a.s.Ref, a.s.U[solver.IRho] }
func (a *eulerApp) pool() *pool.Pool              { return a.s.Pool() }
func (a *eulerApp) prof() *prof.Profiler          { return a.s.Prof }
func (a *eulerApp) gsHandle() *gs.GS              { return a.s.GS() }
func (a *eulerApp) gsIDs() []int64                { return a.s.Local.DGFaceIDs() }
func (a *eulerApp) close()                        { a.s.Close() }

// nekApp drives Nekbone. An op is one CG solve of a fixed iteration
// count on the seeded continuous right-hand side, from a zero guess, so
// every op computes the same solution.
type nekApp struct {
	s     *nekbone.Solver
	iters int
	limit float64 // stated residual reduction every solve must reach
	f     []float64
	x     []float64
	res   nekbone.Residuals
	r0    float64 // initial residual norm
	worst float64 // largest final/initial residual ratio seen
	first uint64  // fingerprint of the first solve
	drift int     // solves whose fingerprint differed from the first
	done  int
}

func newNekApp(r *comm.Rank, w workload, in inputs, t *tracer) (*nekApp, error) {
	end := t.begin("nekbone.New")
	s, err := nekbone.New(r, w.nekboneConfig())
	end()
	if err != nil {
		return nil, fmt.Errorf("nekbone.New: %w", err)
	}
	return &nekApp{s: s, iters: w.cgIters, limit: w.cgReduction, f: continuousRHS(s, in)}, nil
}

// continuousRHS evaluates the seeded RHS at every local point and makes
// it continuous: shared points take the average over the elements that
// hold them (dssum of values over dssum of ones), so every copy of a
// point carries identical bits. Collective.
func continuousRHS(s *nekbone.Solver, in inputs) []float64 {
	n := s.Cfg.N
	n3 := n * n * n
	f := make([]float64, s.Local.Nel*n3)
	mult := make([]float64, len(f))
	for e := 0; e < s.Local.Nel; e++ {
		g := s.Local.GlobalElemCoords(e)
		for k := 0; k < n; k++ {
			for j := 0; j < n; j++ {
				for i := 0; i < n; i++ {
					x := float64(g[0]) + (s.Ref.X[i]+1)/2
					y := float64(g[1]) + (s.Ref.X[j]+1)/2
					z := float64(g[2]) + (s.Ref.X[k]+1)/2
					f[e*n3+i+n*j+n*n*k] = in.rhs(x, y, z)
					mult[e*n3+i+n*j+n*n*k] = 1
				}
			}
		}
	}
	s.DSSum(f)
	s.DSSum(mult)
	for i := range f {
		f[i] /= mult[i]
	}
	return f
}

func (a *nekApp) op() {
	a.x, a.res = a.s.CG(a.f, a.iters)
	a.observe()
}

func (a *nekApp) tracedOp(t *tracer) {
	end := t.begin("nekbone.CG")
	a.x, a.res = a.s.CG(a.f, a.iters)
	end()
	a.observe()
}

// observe checks, rank-locally, that the solve just done repeated the
// first one bit for bit and reached its residual reduction.
func (a *nekApp) observe() {
	fp := a.fingerprint()
	if a.done == 0 {
		a.first = fp
	} else if fp != a.first {
		a.drift++
	}
	a.done++
	if ratio := a.ratio(); !(ratio <= a.worst) {
		a.worst = ratio
	}
}

// ratio is the final over initial residual norm of the last solve.
func (a *nekApp) ratio() float64 {
	if len(a.res) == 0 {
		return 1
	}
	return a.res[len(a.res)-1] / a.r0
}

func (a *nekApp) fingerprint() uint64 {
	h := fnv.New64a()
	hashFloats(h, a.x)
	hashFloats(h, a.res)
	return h.Sum64()
}

func (a *nekApp) begin() { a.r0 = math.Sqrt(a.s.GLSC2(a.f, a.f)) }

func (a *nekApp) check(ops int) error {
	if a.drift > 0 {
		return fmt.Errorf("%d of %d CG solves differ from the first", a.drift, a.done)
	}
	if !(a.worst <= a.limit) {
		return fmt.Errorf("CG residual reduction %.3g above the stated %.3g after %d iterations",
			a.worst, a.limit, a.iters)
	}
	return nil
}

func (a *nekApp) flops() int64                  { return flopsOf(a.s.Ops) }
func (a *nekApp) data() (*sem.Ref1D, []float64) { return a.s.Ref, a.f }
func (a *nekApp) pool() *pool.Pool              { return nil }
func (a *nekApp) prof() *prof.Profiler          { return a.s.Prof }
func (a *nekApp) gsHandle() *gs.GS              { return a.s.GS() }
func (a *nekApp) gsIDs() []int64                { return a.s.Local.ContinuousIDs() }
func (a *nekApp) close()                        {}
