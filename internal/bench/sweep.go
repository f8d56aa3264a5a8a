package bench

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/pool"
	"repro/internal/report"
	"repro/internal/sem"
)

// SweepOptions parameterize the derivative-kernel worker sweep.
type SweepOptions struct {
	N       int               // GLL points per direction (0 = 9)
	Nel     int               // elements (0 = 64)
	Steps   int               // repetitions (0 = 200)
	Variant sem.KernelVariant // kernel variant (default Optimized)
	Workers []int             // widths to sweep (nil = 1,2,4..NumCPU)
	Each    func(SweepRecord) // optional per-record progress callback
}

// SweepRecord is one (direction, workers) measurement.
type SweepRecord struct {
	N       int
	Nel     int
	Steps   int
	Dir     string
	Variant string
	Workers int
	Wall    float64
	Gflops  float64
	Speedup float64
	NumCPU  int
}

// WorkerCounts returns 1, 2, 4, ... plus NumCPU, deduplicated — the
// default sweep widths.
func WorkerCounts() []int {
	var ws []int
	for w := 1; w <= runtime.NumCPU(); w *= 2 {
		ws = append(ws, w)
	}
	if last := ws[len(ws)-1]; last != runtime.NumCPU() {
		ws = append(ws, runtime.NumCPU())
	}
	return ws
}

// WorkerSweep times the derivative kernel across worker counts. The
// element loop is the only thing that parallelizes; numerical results
// are bit-identical at every width (the solver's determinism test pins
// that), so this is purely a wall-clock measurement — noisy, unlike the
// modeled studies.
func WorkerSweep(opts SweepOptions) []SweepRecord {
	n, nel, steps := opts.N, opts.Nel, opts.Steps
	if n == 0 {
		n = 9
	}
	if nel == 0 {
		nel = 64
	}
	if steps == 0 {
		steps = 200
	}
	v := opts.Variant
	widths := opts.Workers
	if widths == nil {
		widths = WorkerCounts()
	}

	ref := sem.NewRef1D(n)
	n3 := n * n * n
	rng := rand.New(rand.NewSource(1))
	u := make([]float64, nel*n3)
	for i := range u {
		u[i] = rng.Float64()
	}
	du := make([]float64, len(u))

	var records []SweepRecord
	serial := map[string]float64{}
	for _, w := range widths {
		pl := pool.New(w)
		for _, dir := range []sem.Direction{sem.DirT, sem.DirR, sem.DirS} {
			start := time.Now()
			var ops sem.OpCount
			for s := 0; s < steps; s++ {
				ops = ops.Plus(sem.DerivPool(pl, dir, v, ref, u, du, nel))
			}
			wall := time.Since(start).Seconds()
			if _, ok := serial[dir.String()]; !ok {
				serial[dir.String()] = wall
			}
			rec := SweepRecord{
				N: n, Nel: nel, Steps: steps,
				Dir: dir.String(), Variant: v.String(), Workers: w,
				Wall: wall, Gflops: float64(ops.Flops()) / wall / 1e9,
				Speedup: serial[dir.String()] / wall, NumCPU: runtime.NumCPU(),
			}
			records = append(records, rec)
			if opts.Each != nil {
				opts.Each(rec)
			}
		}
		pl.Close()
	}
	return records
}

// SweepResults converts sweep records into the unified schema.
func SweepResults(records []SweepRecord) []report.BenchResult {
	var out []report.BenchResult
	for _, r := range records {
		out = append(out, report.BenchResult{
			Suite:    "kernelbench",
			Scenario: fmt.Sprintf("%s/%s/workers=%d", r.Dir, r.Variant, r.Workers),
			Params: map[string]string{
				"n": fmt.Sprint(r.N), "nel": fmt.Sprint(r.Nel), "steps": fmt.Sprint(r.Steps),
			},
			Metrics: []report.Metric{
				{Name: "wall_seconds", Value: r.Wall, Unit: "s", LessIsBetter: true},
				{Name: "gflops_per_sec", Value: r.Gflops, Unit: "gflop/s"},
				{Name: "speedup_vs_serial", Value: r.Speedup, Unit: "x"},
			},
		})
	}
	return out
}
