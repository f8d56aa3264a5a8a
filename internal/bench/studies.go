// Package bench holds the measurement cores of the repo's benchmark
// commands — the loadbal and overlap scenario studies of scalebench,
// the derivative-kernel worker sweep of kernelbench, and the
// steady-state allocation guard — so cmd/benchdiff can re-run exactly
// the committed-baseline measurements in-process and compare, and the
// bench commands stay thin front-ends.
//
// Every modeled quantity (virtual-clock makespans, modeled MPI
// fractions) is deterministic: compute is charged analytically, so two
// runs of the same study on any host produce bit-identical modeled
// results. Wall-clock quantities are measured on the host and noisy.
package bench

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/loadbal"
	"repro/internal/netmodel"
	"repro/internal/obs"
	"repro/internal/obs/critpath"
	"repro/internal/pool"
	"repro/internal/report"
	"repro/internal/solver"
)

// LoadbalOptions parameterize the skewed-load scenario study.
type LoadbalOptions struct {
	N         int     // GLL points per direction (0 = 5, the baseline's)
	Workers   int     // pool width per rank (0 = DefaultWorkers)
	HotFactor float64 // hot-rank cost multiplier (0 = 4, the baseline's)
	Threshold float64 // imbalance triggering a rebalance (0 = 1.2)
	Every     int     // steps between epochs (0 = 2)
	Trace     bool    // record spans/flows and attach critpath summaries
	Net       netmodel.Model
	NetSet    bool // Net is meaningful (zero Model is unusable)
}

// LBScenario is one measured scenario of the loadbal study.
type LBScenario struct {
	Scenario          string
	Ranks             int
	Makespan          float64
	MPIFrac           float64
	ImbalanceBefore   float64
	ImbalanceAfter    float64
	Rebalances        int
	MigratedElems     int
	ReductionVsSkewed float64
	Critpath          *critpath.Summary
}

// LoadbalResult is the study output plus the knobs that produced it.
type LoadbalResult struct {
	N, Steps, HotRank int
	HotFactor         float64
	Threshold         float64
	Every             int
	Net               string
	Scenarios         []LBScenario
}

// LoadbalStudy measures the dynamic load balancer against a one-hot-rank
// cost skew: balanced (floor), skewed static (ceiling), and skewed with
// the balancer on. Identical in configuration to the committed
// BENCH_loadbal_baseline.json when opts is zero.
func LoadbalStudy(opts LoadbalOptions) (*LoadbalResult, error) {
	const np, localElems, hotRank, steps = 8, 2, 3, 12
	n := opts.N
	if n == 0 {
		n = 5
	}
	hotFactor := opts.HotFactor
	if hotFactor == 0 {
		hotFactor = 4.0
	}
	lbCfg := loadbal.Config{Threshold: opts.Threshold, Every: opts.Every}
	if lbCfg.Threshold == 0 {
		lbCfg.Threshold = 1.2
	}
	if lbCfg.Every == 0 {
		lbCfg.Every = 2
	}
	model := opts.Net
	if !opts.NetSet {
		model = netmodel.QDR
	}

	base := solver.DefaultConfig(np, n, localElems)
	box, err := base.Mesh()
	if err != nil {
		return nil, fmt.Errorf("loadbal study: %w", err)
	}
	hot := make(map[int64]float64)
	for _, gid := range box.Partition(hotRank).GIDs() {
		hot[gid] = hotFactor
	}

	run := func(hotElems map[int64]float64, balance bool) (LBScenario, error) {
		cfg := base
		cfg.HotElems = hotElems
		cfg.Workers = opts.Workers
		if cfg.Workers == 0 {
			cfg.Workers = pool.DefaultWorkers(np)
		}
		reg := obs.NewRegistry()
		var tel *obs.Tracer
		if opts.Trace {
			tel = obs.NewTracer()
			cfg.Obs = tel
		}
		commOpts := cfg.CommOptions(model)
		if tel != nil {
			commOpts.Tracer = obs.NewCommTracer(tel, nil)
		}
		balancers := make([]*loadbal.Balancer, np)
		stats, err := comm.Run(np, commOpts, func(r *comm.Rank) error {
			s, err := solver.New(r, cfg)
			if err != nil {
				return err
			}
			defer s.Close()
			s.SetInitial(solver.GaussianPulse(
				float64(cfg.ElemGrid[0])/2, float64(cfg.ElemGrid[1])/2, float64(cfg.ElemGrid[2])/2,
				0.1, 0.5))
			var after func(int)
			if balance {
				b := loadbal.New(s, nil, reg, lbCfg)
				balancers[r.ID()] = b
				after = b.AfterStep
			}
			s.RunWith(steps, after)
			return nil
		})
		if err != nil {
			return LBScenario{}, err
		}
		mpi := 0.0
		for _, f := range stats.RankMPIFractions() {
			mpi += f.FracModeled()
		}
		out := LBScenario{Ranks: np, Makespan: stats.MaxVirtualTime(), MPIFrac: mpi / np}
		if balance {
			out.ImbalanceBefore = reg.Gauge("loadbal_imbalance_before").Value()
			out.ImbalanceAfter = reg.Gauge("loadbal_imbalance_after").Value()
			out.Rebalances = balancers[0].Rebalances
			out.MigratedElems = int(reg.Counter("loadbal_migrated_elems").Value())
		}
		if tel != nil {
			a, err := critpath.Analyze(tel.Spans(), tel.Flows(), critpath.Virtual)
			if err != nil {
				return LBScenario{}, fmt.Errorf("critpath: %w", err)
			}
			s := a.Summary()
			out.Critpath = &s
		}
		return out, nil
	}

	balanced, err := run(nil, false)
	if err != nil {
		return nil, fmt.Errorf("loadbal study (balanced): %w", err)
	}
	balanced.Scenario = "balanced"
	skewed, err := run(hot, false)
	if err != nil {
		return nil, fmt.Errorf("loadbal study (skewed): %w", err)
	}
	skewed.Scenario = "skewed"
	rebal, err := run(hot, true)
	if err != nil {
		return nil, fmt.Errorf("loadbal study (skewed+loadbal): %w", err)
	}
	rebal.Scenario = "skewed+loadbal"
	res := &LoadbalResult{
		N: n, Steps: steps, HotRank: hotRank, HotFactor: hotFactor,
		Threshold: lbCfg.Threshold, Every: lbCfg.Every, Net: model.Name,
	}
	for _, s := range []LBScenario{balanced, skewed, rebal} {
		s.ReductionVsSkewed = 1 - s.Makespan/skewed.Makespan
		res.Scenarios = append(res.Scenarios, s)
	}
	return res, nil
}

// Results converts the study into the unified schema.
func (r *LoadbalResult) Results() []report.BenchResult {
	var out []report.BenchResult
	for _, s := range r.Scenarios {
		out = append(out, report.BenchResult{
			Suite:    "scalebench-loadbal",
			Scenario: s.Scenario,
			Params: map[string]string{
				"n": fmt.Sprint(r.N), "steps": fmt.Sprint(r.Steps), "net": r.Net,
				"hot_rank": fmt.Sprint(r.HotRank), "hot_factor": fmt.Sprint(r.HotFactor),
			},
			Metrics: []report.Metric{
				{Name: "makespan_s", Value: s.Makespan, Unit: "s", Deterministic: true, LessIsBetter: true},
				{Name: "mpi_frac", Value: s.MPIFrac, Unit: "frac", Deterministic: true, LessIsBetter: true},
				{Name: "reduction_vs_skewed", Value: s.ReductionVsSkewed, Unit: "frac"},
			},
			Critpath: s.Critpath,
		})
	}
	return out
}

// OverlapOptions parameterize the compute/communication overlap study.
type OverlapOptions struct {
	N       int // GLL points per direction (0 = 5, the baseline's)
	Workers int
	Trace   bool
	Net     netmodel.Model
	NetSet  bool
}

// OVScenario is one measured scenario of the overlap study.
type OVScenario struct {
	Scenario            string
	Ranks               int
	Makespan            float64
	MPIFrac             float64
	HiddenSeconds       float64
	InteriorElems       int
	BoundaryElems       int
	ReductionVsBlocking float64
	Critpath            *critpath.Summary
}

// OverlapResult is the study output plus the knobs that produced it.
type OverlapResult struct {
	N, LocalElems, Steps int
	Net                  string
	Scenarios            []OVScenario
}

// OverlapStudy measures the split-phase exchange against the blocking
// baseline on a communication-bound configuration. Identical to the
// committed BENCH_overlap_baseline.json when opts is zero.
func OverlapStudy(opts OverlapOptions) (*OverlapResult, error) {
	const np, localElems, steps = 8, 3, 8
	n := opts.N
	if n == 0 {
		n = 5
	}
	model := opts.Net
	if !opts.NetSet {
		model = netmodel.GigE
	}

	run := func(overlap bool) (OVScenario, error) {
		cfg := solver.DefaultConfig(np, n, localElems)
		cfg.Overlap = overlap
		cfg.Workers = opts.Workers
		if cfg.Workers == 0 {
			cfg.Workers = pool.DefaultWorkers(np)
		}
		var tel *obs.Tracer
		if opts.Trace {
			tel = obs.NewTracer()
			cfg.Obs = tel
		}
		commOpts := cfg.CommOptions(model)
		if tel != nil {
			commOpts.Tracer = obs.NewCommTracer(tel, nil)
		}
		interior := 0
		stats, err := comm.Run(np, commOpts, func(r *comm.Rank) error {
			s, err := solver.New(r, cfg)
			if err != nil {
				return err
			}
			defer s.Close()
			if r.ID() == 0 {
				interior = s.InteriorElems()
			}
			s.SetInitial(solver.GaussianPulse(
				float64(cfg.ElemGrid[0])/2, float64(cfg.ElemGrid[1])/2, float64(cfg.ElemGrid[2])/2,
				0.1, 0.5))
			s.Run(steps)
			return nil
		})
		if err != nil {
			return OVScenario{}, err
		}
		mpi := 0.0
		for _, f := range stats.RankMPIFractions() {
			mpi += f.FracModeled()
		}
		out := OVScenario{Ranks: np, Makespan: stats.MaxVirtualTime(), MPIFrac: mpi / np}
		if overlap {
			out.HiddenSeconds = stats.TotalOverlapHidden()
			out.InteriorElems = interior
			out.BoundaryElems = localElems*localElems*localElems - interior
		}
		if tel != nil {
			a, err := critpath.Analyze(tel.Spans(), tel.Flows(), critpath.Virtual)
			if err != nil {
				return OVScenario{}, fmt.Errorf("critpath: %w", err)
			}
			s := a.Summary()
			out.Critpath = &s
		}
		return out, nil
	}

	blocking, err := run(false)
	if err != nil {
		return nil, fmt.Errorf("overlap study (blocking): %w", err)
	}
	blocking.Scenario = "blocking"
	split, err := run(true)
	if err != nil {
		return nil, fmt.Errorf("overlap study (overlap): %w", err)
	}
	split.Scenario = "overlap"
	res := &OverlapResult{N: n, LocalElems: localElems, Steps: steps, Net: model.Name}
	for _, s := range []OVScenario{blocking, split} {
		s.ReductionVsBlocking = 1 - s.Makespan/blocking.Makespan
		res.Scenarios = append(res.Scenarios, s)
	}
	return res, nil
}

// Results converts the study into the unified schema.
func (r *OverlapResult) Results() []report.BenchResult {
	var out []report.BenchResult
	for _, s := range r.Scenarios {
		out = append(out, report.BenchResult{
			Suite:    "scalebench-overlap",
			Scenario: s.Scenario,
			Params: map[string]string{
				"n": fmt.Sprint(r.N), "steps": fmt.Sprint(r.Steps), "net": r.Net,
				"local_elems_per_dir": fmt.Sprint(r.LocalElems),
			},
			Metrics: []report.Metric{
				{Name: "makespan_s", Value: s.Makespan, Unit: "s", Deterministic: true, LessIsBetter: true},
				{Name: "mpi_frac", Value: s.MPIFrac, Unit: "frac", Deterministic: true, LessIsBetter: true},
				{Name: "reduction_vs_blocking", Value: s.ReductionVsBlocking, Unit: "frac"},
			},
			Critpath: s.Critpath,
		})
	}
	return out
}
