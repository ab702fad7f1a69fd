// Package jobs turns the repository's engine primitives into a
// multi-tenant mining service: a bounded job queue with admission
// control and explicit load shedding, a worker pool that runs every job
// under panic containment with a per-job deadline and resource budgets,
// and job deduplication keyed by the checkpoint fingerprint — an
// identical resubmission (a client retrying after a disconnect) attaches
// to the in-flight job or is served from the completed-job cache instead
// of mining twice.
//
// Jobs that die mid-run (cancellation, deadline, a contained panic, or
// the whole process being killed) leave a checkpoint behind; resubmitting
// the identical job resumes from it and produces a result byte-identical
// to an uninterrupted run. Each robustness mechanism maps onto one
// engine primitive from the earlier layers: containment is
// mining.Contain, budgets are core.Options.MaxPatterns/MaxMemBytes,
// checkpoints are internal/checkpoint via core.Checkpointer, identity is
// checkpoint.Fingerprint.
package jobs

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"github.com/disc-mining/disc/internal/core"
	"github.com/disc-mining/disc/internal/mining"
	"github.com/disc-mining/disc/internal/obs"
)

// State is a job's lifecycle state. Terminal states are StateDone,
// StateFailed and StateCanceled.
type State string

// The job lifecycle: queued → running → done | failed | canceled. A job
// canceled while still queued skips running entirely.
const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// Terminal reports whether s is a final state.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// The typed admission failures of Submit. The HTTP layer maps them onto
// status codes (429 with Retry-After, 503, 404).
var (
	// ErrQueueFull is the load-shedding rejection: the bounded queue has
	// no free slot. The client should retry after Manager.RetryAfter.
	ErrQueueFull = errors.New("jobs: queue full")
	// ErrDraining rejects submissions while the manager is shutting
	// down gracefully.
	ErrDraining = errors.New("jobs: draining, not admitting new jobs")
	// ErrNotFound marks a job id the manager does not know.
	ErrNotFound = errors.New("jobs: no such job")
)

// Request describes one mining job. Two Requests with the same
// algorithm, result-relevant options, δ and database content are the
// same job: they share a fingerprint, and the manager executes them at
// most once.
type Request struct {
	// Algo is a registered algorithm name (default "disc-all").
	Algo string
	// MinSup is the absolute minimum support count δ (≥ 1).
	MinSup int
	// Opts are the engine options. The budget fields are overridden by
	// the manager's configured per-job budgets; Checkpoint and Faults
	// are owned by the manager.
	Opts core.Options
	// Timeout overrides the manager's per-job deadline when positive;
	// it is capped at the manager's JobTimeout.
	Timeout time.Duration
	// DB is the database to mine.
	DB mining.Database
	// Trace and ParentSpan carry the job's trace identity into a Mine
	// hook (the cluster coordinator opens its shard spans under them).
	// They are owned by the manager: set just before the hook runs and
	// stripped from submissions, so they never enter the fingerprint.
	Trace      *obs.TraceContext
	ParentSpan obs.SpanID
	// Fingerprint is the job fingerprint the manager computed at
	// admission, handed to a Mine hook so that the hook need not hash the
	// database again (see JobFingerprint). Owned by the manager like
	// Trace; zero elsewhere.
	Fingerprint uint64
}

// normalize resolves defaults and strips fields the manager owns.
func (r Request) normalize() Request {
	if r.Algo == "" {
		r.Algo = "disc-all"
	}
	if r.MinSup < 1 {
		r.MinSup = 1
	}
	r.Opts.Checkpoint = nil
	r.Opts.Faults = nil
	r.Opts.Progress = nil
	r.Opts.Obs = nil
	r.Opts.Shard = nil // shards are a cluster-internal execution detail, not a job identity
	r.Trace = nil
	r.ParentSpan = 0
	r.Fingerprint = 0
	return r
}

// fingerprint binds the request to its job identity (see
// checkpoint.Fingerprint: algorithm, result-relevant options, δ,
// database content — worker count excluded).
func (r Request) fingerprint() uint64 {
	return core.CheckpointFingerprint(r.Algo, r.Opts, r.MinSup, r.DB)
}

// JobFingerprint returns the request's job fingerprint: the manager's,
// when it handed one over in Fingerprint, else computed from the request.
func (r Request) JobFingerprint() uint64 {
	if r.Fingerprint != 0 {
		return r.Fingerprint
	}
	return r.fingerprint()
}

// Job is one admitted mining job. All fields are private and
// mutex-guarded; observe a job through Status, Done and Result.
type Job struct {
	id    string
	fp    uint64
	req   Request
	trace *obs.TraceContext // minted at admission, immutable afterwards

	mu       sync.Mutex
	state    State
	result   *mining.Result
	err      error
	cancel   func()     // non-nil while running
	canceled bool       // a cancellation was requested (possibly pre-run)
	resumed  int        // partitions restored from a checkpoint
	rootSpan obs.SpanID // the run's root "job" span, set by runJob
	created  time.Time
	started  time.Time
	finished time.Time
	done     chan struct{} // closed on reaching a terminal state
}

func newJob(id string, fp uint64, req Request) *Job {
	return &Job{id: id, fp: fp, req: req, state: StateQueued,
		created: time.Now(), done: make(chan struct{})}
}

// ID returns the job's identity: the 16-hex-digit checkpoint
// fingerprint. Identical requests share an ID.
func (j *Job) ID() string { return j.id }

// Trace returns the job's trace context — the flight recorder its
// fleet-wide timeline assembles from.
func (j *Job) Trace() *obs.TraceContext { return j.trace }

// rootSpanID returns the ID of the run's root span (zero before the
// job starts running).
func (j *Job) rootSpanID() obs.SpanID {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.rootSpan
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Result returns the mined result once the job is done.
func (j *Job) Result() (*mining.Result, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result, j.state == StateDone
}

// Status is an immutable snapshot of a job.
type Status struct {
	ID       string
	Algo     string
	MinSup   int
	State    State
	Patterns int    // mined pattern count, once done
	Resumed  int    // first-level partitions restored from a checkpoint
	TraceID  string // the job's trace identity (timeline lookup key)
	Err      error
	Created  time.Time
	Started  time.Time
	Finished time.Time
}

// Status snapshots the job.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	s := Status{
		ID: j.id, Algo: j.req.Algo, MinSup: j.req.MinSup,
		State: j.state, Resumed: j.resumed, Err: j.err,
		Created: j.created, Started: j.started, Finished: j.finished,
	}
	if j.state == StateDone && j.result != nil {
		s.Patterns = j.result.Len()
	}
	if j.trace != nil {
		s.TraceID = j.trace.TraceID().String()
	}
	return s
}

// State returns the job's current state.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// finish moves the job to a terminal state exactly once, reporting
// whether this call did, and drops the job's database: nothing reads it
// after the run, and up to CacheJobs terminal jobs stay cached, so
// keeping it would grow the service's memory with every finished job.
// The run reads the database before its own goroutine finishes the job;
// a job canceled while queued never runs (runJob sees the cancellation
// under mu), so no read races the release.
//
// account receives the terminal state and the admission-to-terminal
// latency before Done closes, so a caller woken by Done finds the job
// counted wherever account counts it.
func (j *Job) finish(s State, res *mining.Result, err error, account func(State, time.Duration)) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return false
	}
	j.state, j.result, j.err = s, res, err
	j.req.DB = nil
	j.finished = time.Now()
	j.cancel = nil
	account(s, j.finished.Sub(j.created))
	close(j.done)
	return true
}

// WriteResult renders a result set in the canonical pattern-per-line
// text form ("<pattern> support=<n>\n", ascending comparative order) —
// the same bytes discmine prints, so service results can be compared
// byte-for-byte against CLI runs and across restarts.
func WriteResult(w io.Writer, res *mining.Result) error {
	for _, pc := range res.Sorted() {
		if _, err := fmt.Fprintf(w, "%s support=%d\n", pc.Pattern, pc.Support); err != nil {
			return err
		}
	}
	return nil
}
