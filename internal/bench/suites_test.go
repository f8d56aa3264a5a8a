package bench

import (
	"path/filepath"
	"testing"

	"repro/internal/report"
)

// The registry and the committed trajectory must name the same suites:
// a trajectory suite with no entry would fail the gate as missing, and
// an entry with no recorded result would never be gated.
func TestSuitesCoverTrajectory(t *testing.T) {
	traj, err := report.ReadTrajectory(filepath.Join("..", "..", "BENCH_trajectory.json"))
	if err != nil {
		t.Fatal(err)
	}
	registered := map[string]bool{}
	for _, s := range Suites {
		if registered[s.Name] {
			t.Errorf("suite %q registered twice", s.Name)
		}
		registered[s.Name] = true
	}
	recorded := map[string]bool{}
	for _, r := range traj.Results {
		recorded[r.Suite] = true
		if !registered[r.Suite] {
			t.Errorf("trajectory suite %q (%s) has no registry entry", r.Suite, r.Key())
		}
	}
	for _, s := range Suites {
		if !recorded[s.Name] {
			t.Errorf("registry suite %q has no result in the trajectory", s.Name)
		}
	}
}

// A baseline scenario the fresh run did not produce fails the gate even
// with no metric regressed: otherwise a suite whose configuration
// drifted would silently stop gating.
func TestCompareMissingScenarioFails(t *testing.T) {
	m := []report.Metric{{Name: "makespan_s", Value: 1, Unit: "s", Deterministic: true, LessIsBetter: true}}
	base := trajOf([]report.BenchResult{
		{Suite: "scalebench-loadbal", Scenario: "balanced", Metrics: m},
		{Suite: "scalebench-loadbal", Scenario: "skewed", Metrics: m},
	})
	cur := trajOf([]report.BenchResult{{Suite: "scalebench-loadbal", Scenario: "balanced", Metrics: m}})
	cmp := Compare(base, cur, CompareOptions{})
	if len(cmp.Regressions) != 0 {
		t.Fatalf("regressions = %+v, want none", cmp.Regressions)
	}
	if len(cmp.Missing) != 1 || cmp.Missing[0] != "scalebench-loadbal/skewed" {
		t.Fatalf("missing = %v", cmp.Missing)
	}
	if !cmp.Failed() {
		t.Fatal("a missing baseline scenario must fail the gate")
	}
	if Compare(cur, cur, CompareOptions{}).Failed() {
		t.Fatal("identical trajectories must pass the gate")
	}
}
