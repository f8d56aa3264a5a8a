package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/comm"
)

// benchmarkFile is BENCHMARK.json, read from the repository root.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestMetricNamesMatchBenchmarkFile(t *testing.T) {
	f := readBenchmarkFile(t)
	if len(f.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json declares %d end-to-end metrics, the benchmark %d", len(f.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		got := f.EndToEnd[i]
		if got.Name != d.name || got.Unit != d.unit || got.Better != d.better {
			t.Errorf("end_to_end[%d] = %s %s %s, benchmark reports %s %s %s",
				i, got.Name, got.Unit, got.Better, d.name, d.unit, d.better)
		}
		if !(got.Bound > 0 && got.Bound <= 0.25) {
			t.Errorf("%s: bound %v outside (0, 0.25]", got.Name, got.Bound)
		}
	}
	if len(f.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json declares %d per-layer metrics, the benchmark %d", len(f.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		got := f.PerLayer[i]
		if got.Name != d.name || got.Unit != d.unit || got.Better != d.better {
			t.Errorf("per_layer[%d] = %s %s %s, benchmark reports %s %s %s",
				i, got.Name, got.Unit, got.Better, d.name, d.unit, d.better)
		}
	}
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark %d", len(f.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if f.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, f.Workloads[i].Name, w.name)
		}
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	if got := minSamples(0.9); got != window {
		t.Errorf("p90 needs %d samples, the window holds %d", got, window)
	}
	if got := minSamples(0.5); got != 20 {
		t.Errorf("p50 needs %d samples, want 20", got)
	}
	xs := make([]float64, 99)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if _, err := percentile(xs, 0.9); err == nil {
		t.Error("p90 of 99 samples accepted with only 9 beyond it")
	}
	xs = append(xs, 100)
	got, err := percentile(xs, 0.9)
	if err != nil || got != 90 {
		t.Errorf("p90 of 1..100 = %v, %v; want 90 (ten samples beyond)", got, err)
	}
	if m := median([]float64{3, 1, 2, 4}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
	var lens []int
	for _, w := range windows(make([]float64, 250), window) {
		lens = append(lens, len(w))
	}
	if len(lens) != 2 || lens[0] != 100 || lens[1] != 150 {
		t.Errorf("250 samples split into windows of %v, want [100 150]", lens)
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	for _, w := range workloads {
		a, b := genInputs(7, w).bytes(), genInputs(7, w).bytes()
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 generated different inputs", w.name)
		}
		if bytes.Equal(a, genInputs(8, w).bytes()) {
			t.Errorf("%s: seeds 7 and 8 generated the same inputs", w.name)
		}
	}
}

// tiny shrinks a workload so that a whole run takes well under a second.
func tiny(w workload) workload {
	w.n, w.elems = 3, 2
	return w
}

func TestOneBitPerturbationIsCaught(t *testing.T) {
	for _, name := range []string{"exchange-n5", "nekbone-cg"} {
		w, _ := findWorkload(name)
		w = tiny(w)
		in := genInputs(1, w)
		ref, err := referenceFingerprints(w, in)
		if err != nil {
			t.Fatal(err)
		}
		for _, flip := range []bool{false, true} {
			var got uint64
			_, err := comm.Run(w.ranks, w.commOptions(), func(r *comm.Rank) error {
				a, err := newApp(r, w, in, nil)
				if err != nil {
					return err
				}
				defer a.close()
				a.op()
				if flip && r.ID() == 1 {
					field := stateOf(a)
					field[len(field)/2] = math.Float64frombits(math.Float64bits(field[len(field)/2]) ^ 1)
				}
				if fp := globalFingerprint(r, a); r.ID() == 0 {
					got = fp
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if (got != ref[0]) != flip {
				t.Errorf("%s: flipped=%v but fingerprint match=%v", name, flip, got == ref[0])
			}
		}
	}
}

// stateOf returns part of the state a fingerprint covers: the density
// field of the Euler solver, the solution of the last Nekbone solve.
func stateOf(a app) []float64 {
	if e, ok := a.(*eulerApp); ok {
		return e.s.U[0]
	}
	return a.(*nekApp).x
}

func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	for _, w := range workloads {
		w := tiny(w)
		for _, traced := range []bool{false, true} {
			m := measure(w, genInputs(3, w), time.Millisecond, traced)
			res := summarize(w, m, traced)
			if !res.Correct || res.Failed != 0 {
				t.Errorf("%s traced=%v: correct=%v failed=%d: %s", w.name, traced, res.Correct, res.Failed,
					strings.Join(m.problems, "; "))
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				v, ok := res.Metrics[d.name]
				if !ok || v.Unit != d.unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s traced=%v: metric %s = %+v, present=%v", w.name, traced, d.name, v, ok)
				}
			}
			if !traced {
				for _, d := range endToEnd {
					if res.Metrics[d.name].Value == 0 {
						t.Errorf("%s: end-to-end metric %s is 0", w.name, d.name)
					}
				}
			}
		}
	}
}

func TestModeledMetricsRepeat(t *testing.T) {
	w, _ := findWorkload("exchange-n5-tcp")
	w = tiny(w)
	var first map[string]float64
	for i := 0; i < 2; i++ {
		m := measure(w, genInputs(5, w), time.Millisecond, true)
		got := map[string]float64{}
		for k, v := range m.layers {
			if strings.HasPrefix(k, "netmodel.") {
				got[k] = v
			}
		}
		if len(got) != 4 {
			t.Fatalf("%d netmodel metrics, want 4", len(got))
		}
		if first == nil {
			first = got
			continue
		}
		for k, v := range got {
			if math.Float64bits(v) != math.Float64bits(first[k]) {
				t.Errorf("%s: %v then %v", k, first[k], v)
			}
		}
	}
}

func TestCGReachesStatedReduction(t *testing.T) {
	w, _ := findWorkload("nekbone-cg")
	for seed := int64(1); seed <= 20; seed++ {
		in := genInputs(seed, w)
		_, err := comm.Run(w.ranks, w.commOptions(), func(r *comm.Rank) error {
			a, err := newNekApp(r, w, in, nil)
			if err != nil {
				return err
			}
			a.begin()
			a.op()
			return a.check(1)
		})
		if err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	tr := &tracer{spans: []span{
		{Name: "op", Start: 0, End: 100, Parent: -1},
		{Name: "solver.StableDt", Start: 0, End: 10, Parent: 0},
		{Name: "solver.Step", Start: 10, End: 90, Parent: 0},
	}}
	self := tr.selfTimes()
	want := map[string]float64{"op": 10e-9, "solver.StableDt": 10e-9, "solver.Step": 80e-9}
	for k, v := range want {
		if math.Abs(self[k]-v) > 1e-15 {
			t.Errorf("self(%s) = %v, want %v", k, self[k], v)
		}
	}
}

// minSamples is the smallest sample count for which percentile(_, q)
// is defined.
func minSamples(q float64) int {
	for n := 1; ; n++ {
		if _, err := percentile(make([]float64, n), q); err == nil {
			return n
		}
	}
}

func TestCalmWindowsDropStolenTime(t *testing.T) {
	ops := make([]float64, 3*window)
	for i := range ops {
		ops[i] = float64(i / window) // window k holds ops of k seconds
	}
	// One CPU sample per block boundary; the hypervisor steals half of
	// the CPU time during the second window only.
	var cpu []cpuSample
	var s cpuSample
	for b := 0; b <= len(ops)/blockOps; b++ {
		cpu = append(cpu, cpuSample{steal: s.steal, total: s.total, ok: true})
		s.total += 100
		if b >= window/blockOps && b < 2*window/blockOps {
			s.steal += 50
		}
	}
	calm, all := calmWindows(ops, cpu)
	if len(all) != 3 || len(calm) != 2 || calm[0].ops[0] != 0 || calm[1].ops[0] != 2 {
		t.Fatalf("calm windows start with ops %v of %d windows, want the first and the third", firstOps(calm), len(all))
	}
	if calm, _ := calmWindows(ops, nil); len(calm) != 3 {
		t.Errorf("without steal samples %d windows used, want all 3", len(calm))
	}
}

func firstOps(ws []timedWindow) []float64 {
	var out []float64
	for _, w := range ws {
		out = append(out, w.ops[0])
	}
	return out
}
