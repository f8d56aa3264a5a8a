package report

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"repro/internal/obs/critpath"
)

// SchemaVersion is the current version of the unified bench-result
// schema. Files without a schema_version, or with a newer one, are
// rejected rather than misread.
const SchemaVersion = 1

// Metric is one named scalar measurement with its comparison semantics.
type Metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit,omitempty"` // "s", "gflop/s", "frac", "bytes", "allocs/op", "x"
	// Deterministic marks modeled values that are bit-reproducible on
	// any host (virtual-clock makespans, modeled fractions, counts).
	// benchdiff gates these tightly; non-deterministic (wall-clock)
	// metrics get repetition-based noise bounds instead.
	Deterministic bool `json:"deterministic,omitempty"`
	// LessIsBetter orients regression detection: true for times and
	// fractions, false for throughput and speedups.
	LessIsBetter bool `json:"less_is_better,omitempty"`
}

// BenchResult is one scenario of one bench suite: a named point in
// configuration space with its measured metrics and, when the run was
// traced, its critical-path digest.
type BenchResult struct {
	// Suite names the producing benchmark family, one of the names in
	// the bench.Suites registry: "kernelbench", "scalebench-loadbal",
	// "scalebench-hier", "allocs", ...
	Suite string `json:"suite"`
	// Scenario identifies the point within the suite, e.g.
	// "skewed+loadbal" or "dudr/workers=1".
	Scenario string `json:"scenario"`
	// Params records the configuration knobs that produced the result.
	Params map[string]string `json:"params,omitempty"`
	// Metrics are the measurements, ordered as produced.
	Metrics []Metric `json:"metrics"`
	// Critpath, when present, is the run's critical-path attribution —
	// what benchdiff blames a regression on.
	Critpath *critpath.Summary `json:"critpath,omitempty"`
}

// Metric returns the named metric and whether it exists.
func (r *BenchResult) Metric(name string) (Metric, bool) {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m, true
		}
	}
	return Metric{}, false
}

// Key identifies a result across runs for diffing.
func (r *BenchResult) Key() string { return r.Suite + "/" + r.Scenario }

// Host describes the machine a trajectory was recorded on; wall-clock
// comparisons across differing hosts are noise, and benchdiff says so.
type Host struct {
	NumCPU int    `json:"num_cpu"`
	GOOS   string `json:"goos,omitempty"`
	GOARCH string `json:"goarch,omitempty"`
}

// Trajectory is the unified, versioned container every bench command
// writes and benchdiff consumes: one file per recorded point in time.
type Trajectory struct {
	SchemaVersion int           `json:"schema_version"`
	CreatedAt     string        `json:"created_at,omitempty"`
	Host          Host          `json:"host"`
	Results       []BenchResult `json:"results"`
}

// New returns a current-schema trajectory stamped with this host and
// time, holding the given results.
func New(results []BenchResult) *Trajectory {
	return &Trajectory{
		SchemaVersion: SchemaVersion,
		CreatedAt:     time.Now().UTC().Format(time.RFC3339),
		Host:          Host{NumCPU: runtime.NumCPU(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH},
		Results:       results,
	}
}

// Find returns the result with the given key, or nil.
func (t *Trajectory) Find(key string) *BenchResult {
	for i := range t.Results {
		if t.Results[i].Key() == key {
			return &t.Results[i]
		}
	}
	return nil
}

// Keys lists every result key, sorted.
func (t *Trajectory) Keys() []string {
	ks := make([]string, 0, len(t.Results))
	for i := range t.Results {
		ks = append(ks, t.Results[i].Key())
	}
	sort.Strings(ks)
	return ks
}

// WriteFile writes the trajectory as indented JSON.
func (t *Trajectory) WriteFile(path string) error {
	if t.SchemaVersion == 0 {
		t.SchemaVersion = SchemaVersion
	}
	buf, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// ReadTrajectory loads a schema-versioned bench-result file.
func ReadTrajectory(path string) (*Trajectory, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	t, err := DecodeTrajectory(buf)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return t, nil
}

// DecodeTrajectory decodes a schema-versioned trajectory.
func DecodeTrajectory(buf []byte) (*Trajectory, error) {
	var probe struct {
		SchemaVersion *int `json:"schema_version"`
	}
	if err := json.Unmarshal(buf, &probe); err != nil || probe.SchemaVersion == nil {
		return nil, fmt.Errorf("unrecognized bench result format (no schema_version)")
	}
	if v := *probe.SchemaVersion; v > SchemaVersion {
		return nil, fmt.Errorf("schema_version %d is newer than this build supports (%d)", v, SchemaVersion)
	}
	var t Trajectory
	if err := json.Unmarshal(buf, &t); err != nil {
		return nil, err
	}
	return &t, nil
}
