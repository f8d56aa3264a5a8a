package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/comm"
	"repro/internal/gs"
	"repro/internal/nekbone"
	"repro/internal/netmodel"
	"repro/internal/sem"
	"repro/internal/solver"
)

type appKind int

const (
	kindEuler appKind = iota
	kindNekbone
)

// workload is one fixed shape the benchmark runs (README.md and
// BENCHMARK.json say why each was chosen). Every workload uses
// the Optimized derivative variant, the QDR network model, a fully
// periodic box and pairwise gather-scatter, with the autotuners off.
type workload struct {
	name    string
	kind    appKind
	ranks   int  // in-process ranks (one TCP endpoint each when tcp)
	workers int  // intra-rank worker-pool width (Euler only)
	n       int  // LGL points per direction
	elems   int  // elements per direction per rank
	tcp     bool // ranks talk over 127.0.0.1 sockets
	cgIters int  // CG iterations per op (Nekbone only)
	// cgReduction is the residual reduction every CG solve must reach:
	// final/initial residual norm at most this.
	cgReduction float64
}

const (
	// cgIters is the CG iteration count of one Nekbone op.
	cgIters = 20
	// cgReduction is the residual reduction every solve must reach.
	cgReduction = 1e-2
)

var workloads = []workload{
	{name: "euler-n8", kind: kindEuler, ranks: 1, workers: 2, n: 8, elems: 4},
	{name: "exchange-n5", kind: kindEuler, ranks: 2, workers: 1, n: 5, elems: 3},
	{name: "exchange-n5-tcp", kind: kindEuler, ranks: 2, workers: 1, n: 5, elems: 3, tcp: true},
	{name: "nekbone-cg", kind: kindNekbone, ranks: 2, workers: 1, n: 5, elems: 3, cgIters: cgIters, cgReduction: cgReduction},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// reference is the plain path the timed run is checked against: the
// same inputs in-process with one worker per rank.
func (w workload) reference() workload {
	w.tcp = false
	w.workers = 1
	return w
}

// points is the number of global LGL points: elements x N^3.
func (w workload) points() int64 {
	pg := comm.FactorGrid(w.ranks)
	el := int64(pg[0]*pg[1]*pg[2]) * int64(w.elems*w.elems*w.elems)
	return el * int64(w.n*w.n*w.n)
}

// rate is the throughput of the given op times: grid points x ops (x
// CG iterations) per second of their summed wall time.
func (w workload) rate(opTimes []float64) float64 {
	work := float64(w.points()) * float64(len(opTimes))
	if w.kind == kindNekbone {
		work *= float64(w.cgIters)
	}
	return work / sum(opTimes)
}

// nelLocal is the element count of one rank.
func (w workload) nelLocal() int { return w.elems * w.elems * w.elems }

func (w workload) eulerConfig() solver.Config {
	cfg := solver.DefaultConfig(w.ranks, w.n, w.elems)
	cfg.Variant = sem.Optimized
	cfg.GSMethod = gs.Pairwise
	cfg.Workers = w.workers
	return cfg
}

func (w workload) nekboneConfig() nekbone.Config {
	cfg := nekbone.DefaultConfig(w.ranks, w.n, w.elems)
	cfg.Periodic = [3]bool{true, true, true}
	cfg.GSMethod = gs.Pairwise
	cfg.Iters = w.cgIters
	return cfg
}

// commOptions is the communicator every workload runs on: the QDR
// model over the workload's processor grid.
func (w workload) commOptions() comm.Options {
	cfg := w.eulerConfig()
	return cfg.CommOptions(netmodel.QDR)
}

// inputs is everything the seed decides. The program receives only
// these values.
type inputs struct {
	Seed   int64      `json:"seed"`
	Center [3]float64 `json:"center"` // Gaussian pulse centre
	Amp    float64    `json:"amp"`    // pulse amplitude
	Sigma  float64    `json:"sigma"`  // pulse width
	Vel    [3]float64 `json:"vel"`    // uniform background velocity
	// Modes are the smooth RHS of the Nekbone solve: a sum of
	// products of sines, each periodic on the box.
	Modes []rhsMode `json:"modes"`
}

type rhsMode struct {
	Wave  [3]float64 `json:"wave"` // angular wave numbers 2*pi*k/extent
	Phase [3]float64 `json:"phase"`
	Amp   float64    `json:"amp"`
}

const rhsModes = 4

// genInputs draws a workload's inputs from seed. The pulse stays well
// inside the box and the flow subsonic, so no op of any seed fails.
func genInputs(seed int64, w workload) inputs {
	rng := rand.New(rand.NewSource(seed))
	ext := w.eulerConfig().ElemGrid
	in := inputs{Seed: seed}
	minExt := float64(min(ext[0], ext[1], ext[2]))
	for d := 0; d < 3; d++ {
		in.Center[d] = float64(ext[d]) * (0.45 + 0.1*rng.Float64())
		in.Vel[d] = 0.2 * (2*rng.Float64() - 1)
	}
	in.Amp = 0.05 + 0.1*rng.Float64()
	in.Sigma = minExt * (0.1 + 0.04*rng.Float64())
	for m := 0; m < rhsModes; m++ {
		var md rhsMode
		for d := 0; d < 3; d++ {
			md.Wave[d] = 2 * math.Pi * float64(1+rng.Intn(2)) / float64(ext[d])
			md.Phase[d] = 2 * math.Pi * rng.Float64()
		}
		md.Amp = 0.5 + rng.Float64()
		in.Modes = append(in.Modes, md)
	}
	return in
}

// bytes is the canonical encoding of the inputs: printed with every
// result, and compared by the determinism self-test.
func (in inputs) bytes() []byte {
	b, err := json.Marshal(in)
	if err != nil {
		panic(err) // plain numeric struct: marshalling cannot fail
	}
	return b
}

// initial is the Euler initial condition: the seeded Gaussian pulse
// carried by the seeded uniform background flow.
func (in inputs) initial() func(x, y, z float64) [solver.NumFields]float64 {
	pulse := solver.GaussianPulse(in.Center[0], in.Center[1], in.Center[2], in.Amp, in.Sigma)
	return func(x, y, z float64) [solver.NumFields]float64 {
		q := pulse(x, y, z)
		rho := q[solver.IRho]
		ke := 0.0
		for d := 0; d < 3; d++ {
			q[solver.IMomX+d] = rho * in.Vel[d]
			ke += in.Vel[d] * in.Vel[d]
		}
		q[solver.IEnergy] += 0.5 * rho * ke
		return q
	}
}

// rhs evaluates the Nekbone right-hand side at a physical point.
func (in inputs) rhs(x, y, z float64) float64 {
	f := 0.0
	for _, m := range in.Modes {
		f += m.Amp * math.Sin(m.Wave[0]*x+m.Phase[0]) *
			math.Sin(m.Wave[1]*y+m.Phase[1]) *
			math.Sin(m.Wave[2]*z+m.Phase[2])
	}
	return f
}
