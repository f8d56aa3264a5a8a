// Package diag computes flow diagnostics over the distributed solver
// state: global kinetic energy, enstrophy-like velocity-gradient norms,
// extrema, and per-direction modal Legendre spectra. These are the
// quantities a turbulence code watches during a run — and the modal
// spectrum doubles as the resolution monitor driving filtering and
// adaptivity decisions on the CMT-nek roadmap.
package diag

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/comm"
	"repro/internal/obs"
	"repro/internal/sem"
	"repro/internal/solver"
)

// Summary holds scalar diagnostics of the flow state (all global).
type Summary struct {
	Mass           float64 // integral of density
	KineticEnergy  float64 // integral of rho |u|^2 / 2
	InternalEnergy float64 // integral of p / (gamma - 1)
	MaxMach        float64 // max |u| / c
	MinDensity     float64
	MaxDensity     float64
}

// Compute evaluates the scalar diagnostics. Collective (vector
// reductions).
func Compute(s *solver.Solver) Summary {
	n := s.Cfg.N
	n3 := n * n * n
	jac := 1.0 / 8 // (h/2)^3 for unit-cube elements
	var ke, ie, mass float64
	maxMach := 0.0
	minRho, maxRho := math.Inf(1), math.Inf(-1)
	var u [solver.NumFields]float64
	for e := 0; e < s.Local.Nel; e++ {
		for k := 0; k < n; k++ {
			for j := 0; j < n; j++ {
				for i := 0; i < n; i++ {
					idx := e*n3 + i + n*j + n*n*k
					w := s.Ref.W[i] * s.Ref.W[j] * s.Ref.W[k] * jac
					for c := 0; c < solver.NumFields; c++ {
						u[c] = s.U[c][idx]
					}
					rho := u[solver.IRho]
					mom2 := u[solver.IMomX]*u[solver.IMomX] +
						u[solver.IMomY]*u[solver.IMomY] +
						u[solver.IMomZ]*u[solver.IMomZ]
					keLoc := 0.5 * mom2 / rho
					p := (solver.Gamma - 1) * (u[solver.IEnergy] - keLoc)
					mass += w * rho
					ke += w * keLoc
					ie += w * p / (solver.Gamma - 1)
					speed := math.Sqrt(mom2) / rho
					c := math.Sqrt(solver.Gamma * p / rho)
					if m := speed / c; m > maxMach {
						maxMach = m
					}
					if rho < minRho {
						minRho = rho
					}
					if rho > maxRho {
						maxRho = rho
					}
				}
			}
		}
	}
	rg := s.Regions().Enter("diag", obs.CatComm)
	sums := s.Rank.Allreduce(comm.OpSum, []float64{mass, ke, ie})
	maxes := s.Rank.Allreduce(comm.OpMax, []float64{maxMach, maxRho})
	mins := s.Rank.Allreduce(comm.OpMin, []float64{minRho})
	rg.End()
	return Summary{
		Mass:           sums[0],
		KineticEnergy:  sums[1],
		InternalEnergy: sums[2],
		MaxMach:        maxes[0],
		MaxDensity:     maxes[1],
		MinDensity:     mins[0],
	}
}

// Scalars returns the summary as a flat name -> value map, the form the
// telemetry step stream embeds per timestep.
func (d Summary) Scalars() map[string]float64 {
	return map[string]float64{
		"mass":            d.Mass,
		"kinetic_energy":  d.KineticEnergy,
		"internal_energy": d.InternalEnergy,
		"max_mach":        d.MaxMach,
		"min_density":     d.MinDensity,
		"max_density":     d.MaxDensity,
	}
}

// StepScalars is a solver.Config.StepDiag hook: it computes the scalar
// diagnostics (collectively — every rank must run it, which the step
// loop guarantees) and returns them for the step record.
func StepScalars(s *solver.Solver) map[string]float64 {
	return Compute(s).Scalars()
}

// String implements fmt.Stringer.
func (d Summary) String() string {
	return fmt.Sprintf("mass=%.9f KE=%.6e IE=%.6e maxMach=%.4f rho=[%.4f,%.4f]",
		d.Mass, d.KineticEnergy, d.InternalEnergy, d.MaxMach, d.MinDensity, d.MaxDensity)
}

// Spectrum is the global mean modal Legendre energy of one field per
// 1D mode index: Spectrum[k] aggregates every modal coefficient whose
// maximum directional index is k. A spectrum whose tail fails to decay
// flags an under-resolved run (the trigger for filtering/adaptivity).
type Spectrum []float64

// ModalSpectrum computes the spectrum of one conserved field.
// Collective.
func ModalSpectrum(s *solver.Solver, field int) Spectrum {
	n := s.Cfg.N
	n3 := n * n * n
	// Nodal -> modal: coefficients a = (V^-1 (x) V^-1 (x) V^-1) u, done
	// as a tensor apply with the inverse Vandermonde.
	vinv := sem.InvVandermonde(s.Ref.X)
	spec := make([]float64, n)
	modal := make([]float64, n3)
	scratch := make([]float64, sem.TensorScratchLen(n, n, n, n, n, n))
	for e := 0; e < s.Local.Nel; e++ {
		ue := s.U[field][e*n3 : (e+1)*n3]
		sem.TensorApply3(vinv, n, n, vinv, n, n, vinv, n, n, ue, modal, scratch)
		for k := 0; k < n; k++ {
			for j := 0; j < n; j++ {
				for i := 0; i < n; i++ {
					mode := i
					if j > mode {
						mode = j
					}
					if k > mode {
						mode = k
					}
					a := modal[i+n*j+n*n*k]
					spec[mode] += a * a
				}
			}
		}
	}
	rg := s.Regions().Enter("diag", obs.CatComm)
	out := s.Rank.Allreduce(comm.OpSum, spec)
	rg.End()
	total := float64(s.Local.Box.TotalElems())
	for i := range out {
		out[i] /= total
	}
	return out
}

// DecayRatio returns the ratio of the highest mode's energy to the total
// — the resolution indicator (small is well-resolved).
func (sp Spectrum) DecayRatio() float64 {
	total := 0.0
	for _, v := range sp {
		total += v
	}
	if total == 0 {
		return 0
	}
	return sp[len(sp)-1] / total
}

// Format renders the spectrum as a log-scale ASCII chart.
func (sp Spectrum) Format() string {
	var b strings.Builder
	maxLog := math.Inf(-1)
	minLog := math.Inf(1)
	logs := make([]float64, len(sp))
	for i, v := range sp {
		if v <= 0 {
			logs[i] = math.Inf(-1)
			continue
		}
		logs[i] = math.Log10(v)
		if logs[i] > maxLog {
			maxLog = logs[i]
		}
		if logs[i] < minLog {
			minLog = logs[i]
		}
	}
	span := maxLog - minLog
	if span <= 0 {
		span = 1
	}
	for i, lg := range logs {
		width := 0
		if !math.IsInf(lg, -1) {
			width = int((lg - minLog) / span * 40)
		}
		fmt.Fprintf(&b, "mode %2d %10.3e |%s\n", i, sp[i], strings.Repeat("#", width))
	}
	return b.String()
}
