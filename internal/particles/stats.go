package particles

import (
	"math"

	"repro/internal/comm"
	"repro/internal/obs"
)

// Dispersion statistics — the quantities particle-laden turbulence
// studies track (mean-square displacement, velocity variance). The cloud
// must be told to record the reference positions first.

// MarkOrigins snapshots every local particle's current position as its
// dispersion origin. Origins travel with the particle through migration?
// No — origins are keyed by particle ID and shared globally at Mark time,
// so statistics stay correct after particles change ranks.
func (c *Cloud) MarkOrigins() {
	if c.origins == nil {
		c.origins = make(map[int64][3]float64)
	}
	// Collect all (id, pos) pairs globally so every rank can look up
	// origins of particles that migrate to it later.
	local := make([]float64, 0, 4*len(c.parts))
	for _, p := range c.parts {
		local = append(local, float64(p.ID), p.Pos[0], p.Pos[1], p.Pos[2])
	}
	counts := make([]int, c.rank.Size())
	for i := range counts {
		counts[i] = len(local)
	}
	rg := c.s.Regions().Enter("particle_stats", obs.CatComm)
	all, _ := c.rank.Alltoallv(repeat(local, c.rank.Size()), counts)
	rg.End()
	for i := 0; i+4 <= len(all); i += 4 {
		c.origins[int64(all[i])] = [3]float64{all[i+1], all[i+2], all[i+3]}
	}
}

// repeat concatenates p copies of s (the payload of an all-to-all
// broadcast of identical data).
func repeat(s []float64, p int) []float64 {
	out := make([]float64, 0, len(s)*p)
	for i := 0; i < p; i++ {
		out = append(out, s...)
	}
	return out
}

// MeanSquareDisplacement returns the global mean square displacement of
// all particles from their marked origins, accounting for periodic
// wraps by the minimum-image convention. Collective. Returns 0 if
// MarkOrigins was never called.
func (c *Cloud) MeanSquareDisplacement() float64 {
	ext := [3]float64{c.lx, c.ly, c.lz}
	box := c.s.Local.Box
	var sum float64
	var count float64
	for _, p := range c.parts {
		o, ok := c.origins[p.ID]
		if !ok {
			continue
		}
		d2 := 0.0
		for d := 0; d < 3; d++ {
			dd := p.Pos[d] - o[d]
			if box.Periodic[d] {
				// Minimum image: the shortest displacement modulo the box.
				dd = math.Mod(dd, ext[d])
				if dd > ext[d]/2 {
					dd -= ext[d]
				}
				if dd < -ext[d]/2 {
					dd += ext[d]
				}
			}
			d2 += dd * dd
		}
		sum += d2
		count++
	}
	rg := c.s.Regions().Enter("particle_stats", obs.CatComm)
	out := c.rank.Allreduce(comm.OpSum, []float64{sum, count})
	rg.End()
	if out[1] == 0 {
		return 0
	}
	return out[0] / out[1]
}

// VelocityVariance returns the global variance of particle speeds around
// the mean velocity vector. Collective.
func (c *Cloud) VelocityVariance() float64 {
	var sum [3]float64
	var sq float64
	for _, p := range c.parts {
		for d := 0; d < 3; d++ {
			sum[d] += p.Vel[d]
			sq += p.Vel[d] * p.Vel[d]
		}
	}
	rg := c.s.Regions().Enter("particle_stats", obs.CatComm)
	out := c.rank.Allreduce(comm.OpSum, []float64{sum[0], sum[1], sum[2], sq, float64(len(c.parts))})
	rg.End()
	n := out[4]
	if n == 0 {
		return 0
	}
	mean2 := (out[0]*out[0] + out[1]*out[1] + out[2]*out[2]) / (n * n)
	return out[3]/n - mean2
}
