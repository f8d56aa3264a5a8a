package repro

import (
	"math"
	"testing"

	"repro/internal/comm"
	"repro/internal/gs"
	"repro/internal/nekbone"
	"repro/internal/obs"
	"repro/internal/prof"
	"repro/internal/sem"
	"repro/internal/solver"
)

// TestRegionCallCounts pins how many times each profiled region runs per
// unit of work — one Euler step, one Nekbone CG solve — and that entering
// and ending a region allocates nothing with tracing off. The explained-
// time reconstruction of the wall-clock benchmark multiplies exactly
// these counts by per-call probe times, so they must not drift when the
// instrumentation changes.
func TestRegionCallCounts(t *testing.T) {
	calls := func(p *prof.Profiler) map[string]int64 {
		out := map[string]int64{}
		for _, st := range p.Flat() {
			out[st.Name] = st.Calls
		}
		return out
	}
	check := func(what string, before, after, want map[string]int64) {
		t.Helper()
		for name, n := range want {
			if got := after[name] - before[name]; got != n {
				t.Errorf("%s: region %s ran %d times, want %d", what, name, got, n)
			}
		}
	}

	_, err := comm.RunSimple(1, func(r *comm.Rank) error {
		// The euler-n8 benchmark shape: N=8, 4x4x4 elements, 2 workers.
		cfg := solver.DefaultConfig(1, 8, 4)
		cfg.Variant = sem.Optimized
		cfg.GSMethod = gs.Pairwise
		cfg.Workers = 2
		s, err := solver.New(r, cfg)
		if err != nil {
			return err
		}
		s.SetInitial(solver.GaussianPulse(2, 2, 2, 0.1, 0.5))
		s.AdvanceStep(0)
		before := calls(s.Prof)
		s.AdvanceStep(1)
		check("one Euler step", before, calls(s.Prof), map[string]int64{
			"ax_deriv_dudr": 15, "ax_deriv_duds": 15, "ax_deriv_dudt": 15,
			"compute_flux":         45,
			"gs_op":                3,
			"numerical_flux":       3,
			"full2face_cmt":        3,
			"compute_flux_surface": 3,
			"rk_update":            3,
			"compute_primitive":    3,
			"timestep":             1,
			"wave_speed":           1,
		})
		s.Close()

		ncfg := nekbone.DefaultConfig(1, 5, 2)
		ncfg.Periodic = [3]bool{true, true, true}
		nb, err := nekbone.New(r, ncfg)
		if err != nil {
			return err
		}
		f := smoothContinuousRHS(nb)
		const iters = 4
		before = calls(nb.Prof)
		if _, res := nb.CG(f, iters); len(res) != iters {
			t.Fatalf("CG ran %d iterations, want %d", len(res), iters)
		}
		// Per iteration: one ax (with its dssum) and three dot products;
		// one more dot product before the loop.
		check("one CG solve", before, calls(nb.Prof), map[string]int64{
			"cg_solve": 1,
			"ax":       iters,
			"dssum":    iters,
			"glsc":     3*iters + 1,
		})

		reg := obs.NewRegions(r, prof.New(), nil)
		enterEnd := func() {
			outer := reg.Enter("gs_op", obs.CatGS)
			reg.Enter("gs_op", obs.CatGS).End() // same name: merged
			reg.Enter("compute_flux", obs.CatKernel).End()
			outer.End()
		}
		if allocs := testing.AllocsPerRun(100, enterEnd); allocs != 0 {
			t.Errorf("Enter/End with tracing off allocates %v per run, want 0", allocs)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// smoothContinuousRHS samples a smooth field at every local point and
// averages shared points over the elements holding them, so every copy
// of a point carries identical bits (CG needs a continuous RHS).
func smoothContinuousRHS(s *nekbone.Solver) []float64 {
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
					f[e*n3+i+n*j+n*n*k] = math.Sin(x) * math.Cos(2*y) * (1 + z)
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
