package bench

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/report"
	"repro/internal/sem"
)

// RunOptions are the knobs a benchdiff invocation passes to every
// suite; each suite reads the ones it uses.
type RunOptions struct {
	Reps int     // kernel-sweep repetitions for wall-clock confidence bounds
	Hot  float64 // hot-rank skew injected into the loadbal study (0 = its default)
}

// Suite is one registered bench suite. Name is the suite label its
// results carry in the trajectory; Run measures it with the one
// configuration the committed BENCH_trajectory.json was recorded with.
type Suite struct {
	Name string
	Run  func(RunOptions) (Output, error)
}

// Output is what one suite run produces.
type Output struct {
	Results []report.BenchResult
	// Critpath is the critical-path report of the traced scenarios.
	Critpath string
	// WallCI holds wall-clock confidence half-widths keyed
	// "suite/scenario|metric".
	WallCI map[string]float64
}

// Suites is the registry benchdiff records and gates: one entry per
// suite of the trajectory, in recording order.
var Suites = []Suite{
	{"scalebench-loadbal", func(o RunOptions) (Output, error) {
		res, err := LoadbalStudy(LoadbalOptions{Trace: true, HotFactor: o.Hot})
		if err != nil {
			return Output{}, err
		}
		return traced(res.Results()), nil
	}},
	{"scalebench-overlap", func(RunOptions) (Output, error) {
		res, err := OverlapStudy(OverlapOptions{Trace: true})
		if err != nil {
			return Output{}, err
		}
		return traced(res.Results()), nil
	}},
	{"scalebench-hier", func(RunOptions) (Output, error) {
		res, err := RunHierStudy(HierOptions{})
		if err != nil {
			return Output{}, err
		}
		return traced(res.Results()), nil
	}},
	{"kernelbench", func(o RunOptions) (Output, error) {
		results, ci := repeatedSweep(SweepOptions{Workers: []int{1}, Variant: sem.Optimized}, o.Reps)
		return Output{Results: results, WallCI: ci}, nil
	}},
	{"kernelbench-mxm", func(RunOptions) (Output, error) {
		return Output{Results: MxMResults(MxMSweep(MxMSweepOptions{Tune: true}))}, nil
	}},
	{"allocs", func(RunOptions) (Output, error) {
		recs, err := AllocsGuard()
		if err != nil {
			return Output{}, err
		}
		return Output{Results: AllocsResults(recs)}, nil
	}},
	{"serveload", func(RunOptions) (Output, error) {
		opts := ServeLoadOptions{Steps: 30} // long enough that preemption occurs
		res, err := ServeLoad(opts)
		if err != nil {
			return Output{}, err
		}
		return Output{Results: res.Results(opts)}, nil
	}},
}

// traced pairs results with the critical-path report of those that
// carry a summary.
func traced(results []report.BenchResult) Output {
	var b strings.Builder
	for i := range results {
		if cp := results[i].Critpath; cp != nil {
			fmt.Fprintf(&b, "== %s ==\n%s\n", results[i].Key(), cp.Format(5))
		}
	}
	return Output{Results: results, Critpath: b.String()}
}

// repeatedSweep runs the worker sweep reps times, reporting per-metric
// means with 95%-style confidence half-widths (2*stderr) for the
// comparison's wall-clock noise bounds.
func repeatedSweep(opts SweepOptions, reps int) ([]report.BenchResult, map[string]float64) {
	reps = max(reps, 1)
	var runs [][]report.BenchResult
	for i := 0; i < reps; i++ {
		runs = append(runs, SweepResults(WorkerSweep(opts)))
	}
	results := make([]report.BenchResult, len(runs[0]))
	ci := map[string]float64{}
	for ri := range runs[0] {
		r := runs[0][ri] // key, params, metric order are identical across reps
		for mi := range r.Metrics {
			var vals []float64
			for _, run := range runs {
				vals = append(vals, run[ri].Metrics[mi].Value)
			}
			mean, half := meanCI(vals)
			r.Metrics[mi].Value = mean
			ci[r.Key()+"|"+r.Metrics[mi].Name] = half
		}
		results[ri] = r
	}
	return results, ci
}

// meanCI returns the sample mean and 2*stderr (0 for a single rep).
func meanCI(vals []float64) (float64, float64) {
	n := float64(len(vals))
	var sum float64
	for _, v := range vals {
		sum += v
	}
	mean := sum / n
	if len(vals) < 2 {
		return mean, 0
	}
	var ss float64
	for _, v := range vals {
		ss += (v - mean) * (v - mean)
	}
	return mean, 2 * math.Sqrt(ss/(n-1)) / math.Sqrt(n)
}
