package serve

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/diag"
)

// JobState is the lifecycle of a submitted job.
type JobState string

// Job states. Queued jobs wait for a slot; Suspending jobs have been
// asked to checkpoint and vacate their slot; Suspended jobs sit back in
// the queue holding in-memory checkpoints and resume — possibly on a
// different slot — when scheduled again.
const (
	StateQueued     JobState = "queued"
	StateRunning    JobState = "running"
	StateSuspending JobState = "suspending"
	StateSuspended  JobState = "suspended"
	StateDone       JobState = "done"
	StateFailed     JobState = "failed"
	StateCanceled   JobState = "canceled"
)

// Control flags a scheduler raises on a running job; the job's ranks
// agree on the flag collectively once per step, so every rank takes the
// same exit at the same step.
const (
	ctlNone int64 = iota
	ctlSuspend
	ctlCancel
)

// StepEvent is one record of the per-job step stream (GET
// /jobs/{id}/steps): the step index, the dt used, accumulated simulated
// time, and rank 0's virtual clock.
type StepEvent struct {
	Step    int     `json:"step"`
	Dt      float64 `json:"dt"`
	SimTime float64 `json:"sim_time"`
	VT      float64 `json:"vt"`
}

// Result is the terminal summary of a completed job: the run report
// scalars plus the flow diagnostics, all computed collectively on the
// job's own ranks. For a preempted-then-resumed job these are
// bit-identical to an uninterrupted run of the same spec.
type Result struct {
	Steps      int     `json:"steps"`
	Dt         float64 `json:"dt"`
	Mass       float64 `json:"mass"`
	Energy     float64 `json:"energy"`
	WaveSpeed  float64 `json:"wave_speed"`
	KineticEn  float64 `json:"kinetic_energy"`
	InternalEn float64 `json:"internal_energy"`
	MaxMach    float64 `json:"max_mach"`
	// MakespanS sums the modeled makespans of the job's run segments.
	MakespanS float64 `json:"makespan_s"`
	// GSMethod is the exchange method the job ran with.
	GSMethod string `json:"gs_method"`
}

// Job is one submission's full server-side state.
type Job struct {
	ID     int64   `json:"id"`
	Spec   JobSpec `json:"spec"`
	seq    int64   // FIFO tie-break within (priority, fair share)
	ctl    atomic.Int64
	cancel atomic.Bool // sticky: DELETE observed (covers races with requeue)

	mu    sync.Mutex
	cond  *sync.Cond // broadcast on step append and state change
	state JobState
	err   string

	// Scheduling bookkeeping (guarded by the server mutex, not job.mu).
	slot        int // current/last slot, -1 before first dispatch
	resumeStep  int // first step of the next segment (0 = fresh start)
	snaps       [][]byte
	preemptions int
	resumes     int
	slots       []int // slot history, one entry per segment

	submitted  time.Time
	preemptReq time.Time // when the outstanding suspend was requested

	// Measured latencies (seconds), exposed in the status document.
	ttfs       float64 // submission -> first step completed (first segment only)
	setupS     float64 // solver construction wall time of the first segment
	preemptLat float64 // last suspend request -> slot vacated
	cacheHit   bool    // first segment reused cached setup artifacts
	makespan   float64 // summed modeled makespan of finished segments

	steps  []StepEvent
	result *Result
}

func newJob(id, seq int64, spec JobSpec) *Job {
	j := &Job{ID: id, Spec: spec, seq: seq, slot: -1, state: StateQueued, submitted: time.Now()}
	j.cond = sync.NewCond(&j.mu)
	return j
}

// setState transitions the job and wakes streamers.
func (j *Job) setState(s JobState) {
	j.mu.Lock()
	j.state = s
	j.cond.Broadcast()
	j.mu.Unlock()
}

// State returns the current lifecycle state.
func (j *Job) State() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// fail records a terminal error.
func (j *Job) fail(err error) {
	j.mu.Lock()
	j.state = StateFailed
	j.err = err.Error()
	j.cond.Broadcast()
	j.mu.Unlock()
}

// appendStep publishes one step event (called from rank 0 of the
// running job only).
func (j *Job) appendStep(ev StepEvent) {
	j.mu.Lock()
	j.steps = append(j.steps, ev)
	j.cond.Broadcast()
	j.mu.Unlock()
}

// stepsFrom copies step events starting at index from; it does not
// block. Streamers poll it under waitChange.
func (j *Job) stepsFrom(from int) []StepEvent {
	j.mu.Lock()
	defer j.mu.Unlock()
	if from >= len(j.steps) {
		return nil
	}
	out := make([]StepEvent, len(j.steps)-from)
	copy(out, j.steps[from:])
	return out
}

// terminal reports whether the state is final.
func terminal(s JobState) bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// waitChange blocks until the step count exceeds n or the job reaches a
// terminal state, returning the current (count, state).
func (j *Job) waitChange(n int) (int, JobState) {
	j.mu.Lock()
	defer j.mu.Unlock()
	for len(j.steps) <= n && !terminal(j.state) {
		j.cond.Wait()
	}
	return len(j.steps), j.state
}

// Status is the JSON document of GET /jobs/{id}.
type Status struct {
	ID          int64    `json:"id"`
	Tenant      string   `json:"tenant"`
	Priority    int      `json:"priority"`
	State       JobState `json:"state"`
	Error       string   `json:"error,omitempty"`
	StepsDone   int      `json:"steps_done"`
	StepBudget  int      `json:"step_budget"`
	Preemptions int      `json:"preemptions"`
	Resumes     int      `json:"resumes"`
	Slots       []int    `json:"slots,omitempty"`
	CacheHit    bool     `json:"cache_hit"`
	TTFSSeconds float64  `json:"ttfs_seconds,omitempty"`
	SetupSecs   float64  `json:"setup_seconds,omitempty"`
	PreemptLatS float64  `json:"preempt_latency_seconds,omitempty"`
	Result      *Result  `json:"result,omitempty"`
}

// status snapshots the job for the API. The scheduling fields are
// written by the server loop under the server mutex; the server calls
// status with that mutex held so the snapshot is consistent.
func (j *Job) status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := Status{
		ID: j.ID, Tenant: j.Spec.Tenant, Priority: j.Spec.Priority,
		State: j.state, Error: j.err,
		StepsDone: len(j.steps), StepBudget: j.Spec.withDefaults().Steps,
		Preemptions: j.preemptions, Resumes: j.resumes,
		Slots: append([]int(nil), j.slots...), CacheHit: j.cacheHit,
		TTFSSeconds: j.ttfs, SetupSecs: j.setupS, PreemptLatS: j.preemptLat,
		Result: j.result,
	}
	return st
}

// resultFrom assembles the terminal summary.
func resultFrom(steps int, dt, mass, energy, lambda float64, d diag.Summary, makespan float64, gsMethod string) *Result {
	return &Result{
		Steps: steps, Dt: dt, Mass: mass, Energy: energy, WaveSpeed: lambda,
		KineticEn: d.KineticEnergy, InternalEn: d.InternalEnergy, MaxMach: d.MaxMach,
		MakespanS: makespan, GSMethod: gsMethod,
	}
}
