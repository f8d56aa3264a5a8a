package report

import (
	"path/filepath"
	"testing"
)

func TestTrajectoryRoundTrip(t *testing.T) {
	tr := &Trajectory{
		SchemaVersion: SchemaVersion,
		Host:          Host{NumCPU: 8, GOOS: "linux", GOARCH: "amd64"},
		Results: []BenchResult{{
			Suite: "scalebench-loadbal", Scenario: "skewed",
			Params: map[string]string{"n": "5"},
			Metrics: []Metric{
				{Name: "makespan_s", Value: 0.04, Unit: "s", Deterministic: true, LessIsBetter: true},
			},
		}},
	}
	path := filepath.Join(t.TempDir(), "traj.json")
	if err := tr.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTrajectory(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.SchemaVersion != SchemaVersion || len(got.Results) != 1 {
		t.Fatalf("round trip = %+v", got)
	}
	r := got.Find("scalebench-loadbal/skewed")
	if r == nil {
		t.Fatal("Find failed after round trip")
	}
	m, ok := r.Metric("makespan_s")
	if !ok || m.Value != 0.04 || !m.Deterministic || !m.LessIsBetter {
		t.Fatalf("metric = %+v ok=%v", m, ok)
	}
}

func TestDecodeNewerVersionRejected(t *testing.T) {
	buf := []byte(`{"schema_version": 99, "results": []}`)
	if _, err := DecodeTrajectory(buf); err == nil {
		t.Fatal("newer schema_version must be rejected, not silently misread")
	}
}

func TestDecodeGarbageRejected(t *testing.T) {
	// A v0 kernelbench record array carries no schema_version either.
	for _, buf := range []string{`{"pizzas": 3}`, `[{"bench":"x"}]`} {
		if _, err := DecodeTrajectory([]byte(buf)); err == nil {
			t.Fatalf("unrecognized format %s must error", buf)
		}
	}
}
