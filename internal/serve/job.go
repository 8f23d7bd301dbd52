package serve

import (
	"sync"
	"time"

	"gnbody/internal/core"
	"gnbody/internal/pipeline"
	"gnbody/internal/seq"
	"gnbody/internal/trace"
)

// JobState is the lifecycle of a submitted job.
type JobState string

const (
	// StateQueued: admitted, waiting for a world.
	StateQueued JobState = "queued"
	// StateRunning: executing on a resident world (includes retries).
	StateRunning JobState = "running"
	// StateDone: hits are available.
	StateDone JobState = "done"
	// StateFailed: terminal failure; Error/ErrorKind name the cause.
	StateFailed JobState = "failed"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool { return s == StateDone || s == StateFailed }

// JobSpec is the overlap job's parameterisation (pipeline.JobSpec), and
// the batching key: jobs with equal specs may share a warm world
// back-to-back.
type JobSpec = pipeline.JobSpec

// Job is one admitted overlap request. Fields under mu are mutated by the
// scheduler; everything else is immutable after admission.
type Job struct {
	ID   string
	Spec JobSpec

	reads    *seq.ReadSet
	estBytes int64 // admission-control estimate: total wire bytes of the read set

	// chaosKill >= 0 arms the chaos hook: the engine kills this rank of
	// the world mid-run while executing this job. Only settable when the
	// server runs with chaos enabled.
	chaosKill int

	mu       sync.Mutex
	state    JobState
	retries  int
	err      error
	errKind  string
	hits     []core.Hit
	tasks    int64
	metrics  []trace.JobRow
	created  time.Time
	started  time.Time
	finished time.Time
	done     chan struct{}
}

// NewJob builds a job for programmatic submission (experiments, embedding
// the pool without the HTTP front end). The spec is validated exactly as
// an HTTP submission's is; start it from pipeline.DefaultJobSpec.
func NewJob(id string, spec JobSpec, reads *seq.ReadSet) (*Job, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return newJob(id, spec, reads, time.Now()), nil
}

func newJob(id string, spec JobSpec, reads *seq.ReadSet, now time.Time) *Job {
	var est int64
	for i := range reads.Reads {
		est += int64(seq.WireSizeOf(reads.Reads[i].Len()))
	}
	return &Job{
		ID: id, Spec: spec, reads: reads, estBytes: est,
		chaosKill: -1, state: StateQueued, created: now,
		done: make(chan struct{}),
	}
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// setRunning marks the job running (idempotent across retries).
func (j *Job) setRunning(now time.Time) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.state = StateRunning
	if j.started.IsZero() {
		j.started = now
	}
}

// complete resolves the job as done.
func (j *Job) complete(hits []core.Hit, tasks int64, rows []trace.JobRow, now time.Time) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return
	}
	j.state, j.hits, j.tasks, j.metrics, j.finished = StateDone, hits, tasks, rows, now
	close(j.done)
}

// fail resolves the job as failed with a typed cause.
func (j *Job) fail(err error, kind string, now time.Time) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return
	}
	j.state, j.err, j.errKind, j.finished = StateFailed, err, kind, now
	close(j.done)
}

// bumpRetry counts one reschedule after a rank loss.
func (j *Job) bumpRetry() {
	j.mu.Lock()
	j.retries++
	j.mu.Unlock()
}

// Retries returns how many times the job has been rescheduled.
func (j *Job) Retries() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.retries
}

// Status is the externally-visible snapshot of a job, also its JSON wire
// form on the status endpoint.
type Status struct {
	ID        string   `json:"id"`
	State     JobState `json:"state"`
	Spec      JobSpec  `json:"spec"`
	Reads     int      `json:"reads"`
	EstBytes  int64    `json:"est_bytes"`
	Tasks     int64    `json:"tasks,omitempty"`
	Hits      int      `json:"hits,omitempty"`
	Retries   int      `json:"retries"`
	Error     string   `json:"error,omitempty"`
	ErrorKind string   `json:"error_kind,omitempty"`
	ElapsedMS int64    `json:"elapsed_ms,omitempty"`
}

// Status snapshots the job under its lock.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := Status{
		ID: j.ID, State: j.state, Spec: j.Spec,
		Reads: j.reads.Len(), EstBytes: j.estBytes,
		Tasks: j.tasks, Hits: len(j.hits), Retries: j.retries,
	}
	if j.err != nil {
		st.Error, st.ErrorKind = j.err.Error(), j.errKind
	}
	if !j.finished.IsZero() && !j.started.IsZero() {
		st.ElapsedMS = j.finished.Sub(j.started).Milliseconds()
	}
	return st
}

// Hits returns the job's saved alignments (nil until done) and whether the
// job is done.
func (j *Job) Hits() ([]core.Hit, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.hits, j.state == StateDone
}

// Metrics returns the job-scoped per-rank metrics rows (nil until done).
func (j *Job) Metrics() []trace.JobRow {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.metrics
}

// ReadName resolves a ReadID to the submitted read's name (hit output).
func (j *Job) ReadName(id seq.ReadID) string { return j.reads.Get(id).Name }
