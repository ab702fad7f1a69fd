package jobs

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/disc-mining/disc/internal/checkpoint"
	"github.com/disc-mining/disc/internal/core"
	"github.com/disc-mining/disc/internal/faultinject"
	"github.com/disc-mining/disc/internal/mining"
	"github.com/disc-mining/disc/internal/obs"
)

// Config shapes a Manager. The zero value is usable: a queue of 16, one
// worker, no deadline, no checkpointing, no budgets.
type Config struct {
	// QueueDepth bounds the backlog of admitted-but-not-yet-running
	// jobs; Submit sheds load with ErrQueueFull beyond it (default 16).
	QueueDepth int
	// Workers is the number of jobs mined concurrently (default 1).
	// Each job additionally parallelizes internally through its own
	// Opts.Workers partition pool.
	Workers int
	// JobTimeout is the per-job deadline (0 = none). A job hitting it
	// fails with context.DeadlineExceeded after checkpointing.
	JobTimeout time.Duration
	// MaxPatterns and MaxMemBytes are the per-job resource budgets
	// (core.Options semantics: degrade at 80%, stop with a typed
	// *mining.BudgetError at 100%). They override whatever the request
	// carries, so one tenant cannot opt out of the service's limits.
	MaxPatterns int
	MaxMemBytes int64
	// CheckpointDir, when set, persists each disc-all-family job's
	// completed first-level partitions to <dir>/<id>.ckpt: on
	// cancellation, deadline or failure immediately, and additionally
	// every CheckpointInterval while running. Resubmitting an identical
	// job — same process or after a restart — resumes from the file.
	CheckpointDir string
	// CheckpointInterval is the periodic snapshot cadence (0 = only at
	// job exit). Periodic snapshots are what make kill -9 survivable.
	CheckpointInterval time.Duration
	// FS is the filesystem checkpoint writes, removals and quarantine
	// renames go through (nil = the real filesystem). Tests and fault
	// drills plug in faultinject.Injector.FS here.
	FS checkpoint.FS
	// DegradeAfter is how many consecutive checkpoint write failures
	// switch the manager into degraded-durability mode: mining continues,
	// results are byte-identical, but snapshots stop until a probe write
	// succeeds (default 3; negative disables degradation).
	DegradeAfter int
	// DurabilityProbe is how often a degraded manager retries one
	// checkpoint write to see whether the disk recovered (default 15s).
	DurabilityProbe time.Duration
	// StorageRetention is the age beyond which orphaned checkpoints,
	// quarantined files and stale .tmp staging files in CheckpointDir are
	// reclaimed by GC (0 = keep forever).
	StorageRetention time.Duration
	// StorageGCInterval is the cadence of the periodic retention GC and
	// resting-file scrub over CheckpointDir (0 = startup pass only).
	StorageGCInterval time.Duration
	// CacheJobs bounds how many terminal jobs are retained for result
	// caching and idempotent resubmission (default 64, FIFO eviction).
	CacheJobs int
	// RetryAfter is the hint handed to shed clients (default 1s).
	RetryAfter time.Duration
	// Faults arms the deterministic fault-injection points on the job
	// path: WorkerPanic at the job boundary and inside the engine,
	// CtxCancel at engine partition boundaries (wired to the running
	// job's cancel). Production managers leave it nil.
	Faults *faultinject.Injector
	// Logf receives operational log lines (nil discards them).
	Logf func(format string, args ...any)
	// Obs is the observability handle shared with the serving binary.
	// The manager's counters ARE registry instruments (Metrics reads
	// them back), every job run hands the observer to the engine, and
	// checkpoint writes observe their latency and size. Nil gets a
	// private registry so the accounting is identical either way.
	Obs *obs.Observer
	// Node names this process in the trace records its spans and events
	// carry ("" is fine for a single-process service; the cluster role
	// wiring sets coordinator/worker names so a fleet timeline says
	// where each span ran).
	Node string
	// TraceEvents bounds each job's flight-recorder ring (0 selects
	// obs.DefaultRecorderEvents). The recorder never grows past it:
	// oldest events are evicted and counted in the timeline's
	// dropped_events.
	TraceEvents int
	// TraceSeed seeds trace/span ID minting (0 = time-seeded). Tests
	// set it for reproducible golden timelines.
	TraceSeed int64
	// Mine, when set, replaces the local mining of a job — the cluster
	// coordinator plugs in here to shard the job across workers. It
	// receives the request with the service budgets already folded in and
	// the job's checkpointer (nil when checkpointing is off); recording
	// received partitions into the checkpointer keeps periodic snapshots
	// and crash-resume working unchanged. Everything around the run —
	// admission, dedup, deadline, containment, terminal accounting — stays
	// the manager's.
	Mine func(ctx context.Context, req Request, cp *core.Checkpointer) (*mining.Result, error)
}

func (c Config) withDefaults() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.CacheJobs <= 0 {
		c.CacheJobs = 64
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.FS == nil {
		c.FS = checkpoint.OS
	}
	return c
}

// Metrics counts what the manager has done since start. Queued and
// Running are gauges; the rest are monotone counters. It is a snapshot
// read back from the manager's registry instruments — the same numbers
// /metrics exposes, by construction.
type Metrics struct {
	Submitted int // jobs admitted into the queue
	Deduped   int // submissions attached to an existing queued/running job
	CacheHits int // submissions served from a completed job
	Shed      int // submissions rejected with ErrQueueFull
	Drained   int // submissions rejected with ErrDraining
	Executed  int // job runs started (≤ Submitted: dedup prevents re-runs)
	Done      int
	Failed    int
	Canceled  int
	Resumed   int // runs that restored partitions from a checkpoint
	Queued    int
	Running   int
}

// Manager owns the job queue, the worker pool and the completed-job
// cache. Construct with NewManager; stop with Drain.
type Manager struct {
	cfg Config

	mu        sync.Mutex
	jobs      map[string]*Job // every known job, keyed by fingerprint id
	termOrder []string        // terminal jobs in completion order (cache eviction)
	// pending is the admission backlog. A slice (not a channel) so that
	// canceling a queued job can remove it immediately — a canceled job
	// must stop counting against QueueDepth and admission capacity the
	// moment it turns terminal, not when a worker happens to pop it.
	pending  []*Job
	notEmpty *sync.Cond // signaled on append to pending and on drain
	draining bool
	execs    map[string]int // job id -> times actually mined

	wg         sync.WaitGroup
	baseCtx    context.Context
	baseCancel context.CancelFunc

	// The manager's accounting lives in registry instruments; Metrics()
	// and /metrics both read them, so the two views cannot disagree.
	// The counters are pre-created here so hot paths (Submit under
	// m.mu) touch only atomics, never the registry lock.
	obs          *obs.Observer
	ids          *obs.IDSource // trace/span ID minting for every job trace
	submitted    *obs.Counter
	deduped      *obs.Counter
	cacheHits    *obs.Counter
	shed         *obs.Counter
	drained      *obs.Counter
	executed     *obs.Counter
	resumed      *obs.Counter
	finished     map[State]*obs.Counter
	jobDur       map[State]*obs.Histogram
	ckptDur      *obs.Histogram
	ckptBytes    *obs.Histogram
	ckptFailures *obs.Counter

	// store is the checkpoint directory's durable-state plane: the
	// degraded-durability latch, quarantine, and retention GC.
	store  *checkpoint.Durability
	stopGC func() // called by Drain; ends the periodic storage GC

	// mine runs one job; replaced by lifecycle tests to control timing.
	mine func(ctx context.Context, j *Job, cp *core.Checkpointer) (*mining.Result, error)
	// writeCkpt is the snapshot write used by the periodic goroutine;
	// replaced by tests to make an in-flight write observable (proving
	// stopSnapshots waits for it). Defaults to writeCheckpoint.
	writeCkpt func(j *Job, cp *core.Checkpointer, path string)
}

// NewManager starts a manager with cfg's worker pool running.
func NewManager(cfg Config) *Manager {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	m := &Manager{
		cfg:        cfg,
		jobs:       map[string]*Job{},
		execs:      map[string]int{},
		baseCtx:    ctx,
		baseCancel: cancel,
		ids:        obs.NewIDSource(cfg.TraceSeed),
	}
	m.notEmpty = sync.NewCond(&m.mu)
	m.initObs(cfg.Obs)
	m.mine = m.defaultMine
	m.writeCkpt = m.writeCheckpoint
	m.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go m.worker()
	}
	// The startup pass scrubs bit-rot from the previous process's
	// lifetime and reclaims files past retention, so a restart never
	// trips over last month's garbage.
	m.stopGC = m.store.StartGC(cfg.StorageGCInterval)
	m.reportOrphans()
	return m
}

// liveCheckpoint reports whether path is the checkpoint of a job still
// queued or running — its crash-survival state, which GC never
// reclaims.
func (m *Manager) liveCheckpoint(path string) bool {
	if !strings.HasSuffix(path, ".ckpt") {
		return false
	}
	id := strings.TrimSuffix(filepath.Base(path), ".ckpt")
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return ok && !j.State().Terminal()
}

// reportOrphans logs the checkpoints a previous process left behind.
// Each resumes automatically when an identical job is resubmitted (the
// cluster's ledger recovery does so on its own), but until then the
// operator should know interrupted work is waiting on disk rather than
// discover it from a mysteriously fast "fresh" run later.
func (m *Manager) reportOrphans() {
	if m.cfg.CheckpointDir == "" {
		return
	}
	matches, err := filepath.Glob(filepath.Join(m.cfg.CheckpointDir, "*.ckpt"))
	if err != nil || len(matches) == 0 {
		return
	}
	sort.Strings(matches)
	for _, path := range matches {
		id := strings.TrimSuffix(filepath.Base(path), ".ckpt")
		m.logf("jobs: checkpoint for job %s survives from a previous run; resubmitting the identical job resumes it", id)
	}
	m.logf("jobs: %d orphaned checkpoint(s) in %s", len(matches), m.cfg.CheckpointDir)
}

// initObs wires the manager's instruments. Every family is registered
// eagerly so a scrape of a fresh server already shows them at zero.
func (m *Manager) initObs(o *obs.Observer) {
	if o == nil {
		o = obs.NewObserver()
	}
	m.obs = o
	r := o.Registry
	m.submitted = r.Counter("disc_jobs_submitted_total", "Jobs admitted into the queue.")
	m.deduped = r.Counter("disc_jobs_deduped_total", "Submissions attached to an already queued or running identical job.")
	m.cacheHits = r.Counter("disc_jobs_cache_hits_total", "Submissions served from the completed-job cache.")
	m.shed = r.Counter("disc_jobs_shed_total", "Submissions rejected by admission control (queue full).")
	m.drained = r.Counter("disc_jobs_drained_total", "Submissions rejected during graceful drain.")
	m.executed = r.Counter("disc_jobs_executed_total", "Job runs actually started (dedup keeps this at most one per admission).")
	m.resumed = r.Counter("disc_jobs_resumed_total", "Job runs that restored completed partitions from a checkpoint.")
	m.finished = map[State]*obs.Counter{}
	m.jobDur = map[State]*obs.Histogram{}
	for _, s := range []State{StateDone, StateFailed, StateCanceled} {
		m.finished[s] = r.Counter("disc_jobs_finished_total",
			"Jobs reaching a terminal state, by state.", obs.Label{Key: "state", Value: string(s)})
		m.jobDur[s] = r.Histogram("disc_job_duration_seconds",
			"End-to-end job latency (admission to terminal state), by terminal state.",
			obs.DurationBuckets, obs.Label{Key: "state", Value: string(s)})
	}
	m.ckptDur = r.Histogram("disc_checkpoint_write_seconds",
		"Latency of one atomic checkpoint snapshot write.", obs.DurationBuckets)
	m.ckptBytes = r.Histogram("disc_checkpoint_bytes",
		"Size of one checkpoint snapshot.", obs.SizeBuckets)
	m.ckptFailures = r.Counter("disc_jobs_checkpoint_failures_total",
		"Checkpoint snapshot writes that failed (disk full, torn write, sync error).")
	m.store = checkpoint.NewDurability("jobs", checkpoint.KindCheckpoint, m.cfg.CheckpointDir,
		checkpoint.Policy{FS: m.cfg.FS, DegradeAfter: m.cfg.DegradeAfter, Probe: m.cfg.DurabilityProbe,
			Retention: m.cfg.StorageRetention, Keep: m.liveCheckpoint},
		m.cfg.Logf, r)
	// Live state reads through at render time: the gauges evaluate the
	// queue and job table when scraped, so they can never go stale.
	r.GaugeFunc("disc_jobs_queue_depth", "Jobs waiting in the admission queue.",
		func() float64 { return float64(m.QueueDepth()) })
	for _, s := range []State{StateQueued, StateRunning, StateDone, StateFailed, StateCanceled} {
		s := s
		r.GaugeFunc("disc_jobs_by_state", "Known jobs by lifecycle state.",
			func() float64 { return float64(m.JobsByState()[s]) },
			obs.Label{Key: "state", Value: string(s)})
	}
}

// Registry exposes the registry the manager's instruments live in — the
// one the serving binary mounts at /metrics.
func (m *Manager) Registry() *obs.Registry { return m.obs.Registry }

// QueueDepth reports the jobs admitted but not yet claimed by a worker.
// Jobs canceled while queued leave the backlog immediately, so they
// never inflate this number.
func (m *Manager) QueueDepth() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.pending)
}

// JobsByState counts every known job (including cached terminal ones) by
// lifecycle state.
func (m *Manager) JobsByState() map[State]int {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := map[State]int{}
	for _, j := range m.jobs {
		out[j.State()]++
	}
	return out
}

func (m *Manager) logf(format string, args ...any) {
	if m.cfg.Logf != nil {
		m.cfg.Logf(format, args...)
	}
}

// RetryAfter is the backoff hint for clients shed with ErrQueueFull or
// ErrDraining.
func (m *Manager) RetryAfter() time.Duration { return m.cfg.RetryAfter }

// Metrics snapshots the manager's counters and gauges by reading the
// registry instruments back.
func (m *Manager) Metrics() Metrics {
	byState := m.JobsByState()
	return Metrics{
		Submitted: int(m.submitted.Value()),
		Deduped:   int(m.deduped.Value()),
		CacheHits: int(m.cacheHits.Value()),
		Shed:      int(m.shed.Value()),
		Drained:   int(m.drained.Value()),
		Executed:  int(m.executed.Value()),
		Done:      int(m.finished[StateDone].Value()),
		Failed:    int(m.finished[StateFailed].Value()),
		Canceled:  int(m.finished[StateCanceled].Value()),
		Resumed:   int(m.resumed.Value()),
		Queued:    m.QueueDepth(),
		Running:   byState[StateRunning],
	}
}

// ExecCount reports how many times the job's mining actually ran —
// the deduplication invariant is that identical submissions never push
// it past 1 per admission.
func (m *Manager) ExecCount(id string) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.execs[id]
}

// Submit admits a job. Identical requests (same fingerprint) attach to
// the already queued or running job, or hit the completed-job cache;
// either way the returned Job is the shared one and no second execution
// happens. A previously failed or canceled job is re-admitted — and, if
// it checkpointed, resumes where it stopped. Submit sheds load with
// ErrQueueFull when the backlog is at QueueDepth and refuses with
// ErrDraining during shutdown.
func (m *Manager) Submit(req Request) (*Job, error) {
	req = req.normalize()
	// Reject unknown algorithms at admission, not at execution.
	if _, err := minerFor(req.Algo, req.Opts); err != nil {
		return nil, err
	}
	fp := req.fingerprint()
	id := fmt.Sprintf("%016x", fp)

	m.mu.Lock()
	defer m.mu.Unlock()
	if m.draining {
		m.drained.Inc()
		return nil, ErrDraining
	}
	if j, ok := m.jobs[id]; ok {
		switch j.State() {
		case StateQueued, StateRunning:
			m.deduped.Inc()
			return j, nil
		case StateDone:
			m.cacheHits.Inc()
			return j, nil
		default: // failed or canceled: re-admit (resumes from checkpoint)
			m.evictLocked(id)
		}
	}
	if len(m.pending) >= m.cfg.QueueDepth {
		m.shed.Inc()
		return nil, ErrQueueFull
	}
	j := newJob(id, fp, req)
	// Admission mints the job's trace: one trace ID bound to the job
	// fingerprint, one bounded flight recorder, for the job's whole
	// life across every process that works on it.
	j.trace = obs.NewTraceContext(m.ids.TraceID(), m.cfg.Node, m.ids,
		obs.NewRecorder(m.cfg.TraceEvents))
	j.trace.Event("queue-admit", 0, map[string]string{
		"job":         id,
		"queue_depth": fmt.Sprint(len(m.pending)),
	})
	m.pending = append(m.pending, j)
	m.jobs[id] = j
	m.submitted.Inc()
	m.notEmpty.Signal()
	return j, nil
}

// Get returns a known job by id.
func (m *Manager) Get(id string) (*Job, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return nil, ErrNotFound
	}
	return j, nil
}

// Timeline assembles the job's trace — every span and structured
// event its flight recorder retained, including span records folded
// back from cluster workers — sorted and ready to serve as JSON.
func (m *Manager) Timeline(id string) (*obs.Timeline, error) {
	j, err := m.Get(id)
	if err != nil {
		return nil, err
	}
	tc := j.Trace()
	if tc == nil {
		return nil, ErrNotFound
	}
	return tc.Timeline(id), nil
}

// ActiveTraces lists the trace IDs of every non-terminal job, sorted —
// the /healthz view that turns "the service is slow" into "go look at
// these timelines".
func (m *Manager) ActiveTraces() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := []string{}
	for _, j := range m.jobs {
		if j.State().Terminal() {
			continue
		}
		if tc := j.trace; tc != nil {
			out = append(out, tc.TraceID().String())
		}
	}
	sort.Strings(out)
	return out
}

// Cancel requests cancellation of a job: a queued job terminates
// immediately, a running one is cut at its next cooperative engine
// check (checkpointing what completed). Canceling a terminal job is an
// idempotent no-op.
func (m *Manager) Cancel(id string) (*Job, error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return nil, ErrNotFound
	}
	j.mu.Lock()
	j.canceled = true
	cancel := j.cancel
	queued := j.state == StateQueued
	j.mu.Unlock()
	switch {
	case queued:
		// Pull it out of the backlog so it frees its admission slot now
		// — QueueDepth and shedding must not count a terminal job — and
		// finish it so pollers see the terminal state immediately. If a
		// worker popped it in the meantime, the removal is a no-op and
		// runJob's own canceled check skips the run.
		m.unqueue(j)
		m.finishJob(j, StateCanceled, nil, context.Canceled)
	case cancel != nil:
		cancel()
	}
	return j, nil
}

// unqueue removes a job from the pending backlog, if it is still there.
func (m *Manager) unqueue(j *Job) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i, q := range m.pending {
		if q == j {
			copy(m.pending[i:], m.pending[i+1:])
			m.pending[len(m.pending)-1] = nil
			m.pending = m.pending[:len(m.pending)-1]
			return
		}
	}
}

// Draining reports whether the manager has stopped admitting jobs.
func (m *Manager) Draining() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.draining
}

// Drain shuts down gracefully: stop admitting, let queued and running
// jobs finish, then return. If ctx expires first, in-flight jobs are
// canceled — they checkpoint their completed partitions — and Drain
// waits for the workers to wind down before returning ctx's error.
// Either way, no job is left mid-flight without a checkpoint.
func (m *Manager) Drain(ctx context.Context) error {
	m.mu.Lock()
	if m.draining {
		m.mu.Unlock()
		return errors.New("jobs: already draining")
	}
	m.draining = true
	m.notEmpty.Broadcast() // wake idle workers so they can exit
	m.mu.Unlock()
	m.stopGC()

	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		m.baseCancel() // cancel in-flight jobs; they checkpoint and exit
		<-done
		return fmt.Errorf("jobs: drain cut short, in-flight jobs checkpointed: %w", ctx.Err())
	}
}

// worker pops and runs pending jobs until Drain empties the backlog.
func (m *Manager) worker() {
	defer m.wg.Done()
	for {
		j := m.nextJob()
		if j == nil {
			return
		}
		m.runJob(j)
	}
}

// nextJob blocks until a pending job is available, claiming the oldest.
// It returns nil once the manager is draining and the backlog is empty —
// queued work still finishes during drain.
func (m *Manager) nextJob() *Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	for len(m.pending) == 0 {
		if m.draining {
			return nil
		}
		m.notEmpty.Wait()
	}
	j := m.pending[0]
	m.pending[0] = nil
	m.pending = m.pending[1:]
	if len(m.pending) == 0 {
		m.pending = nil // let the backing array go once drained
	}
	return j
}

// finishJob moves a job to a terminal state and maintains the cache:
// terminal jobs stay addressable (result cache, idempotent retries)
// until CacheJobs newer ones evict them.
func (m *Manager) finishJob(j *Job, s State, res *mining.Result, err error) {
	if !j.finish(s, res, err, m.countFinished) {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.termOrder = append(m.termOrder, j.id)
	for len(m.termOrder) > m.cfg.CacheJobs {
		victim := m.termOrder[0]
		m.termOrder = m.termOrder[1:]
		// Only evict if the map entry is still this terminal incarnation
		// (a re-admitted job reuses the id).
		if cur, ok := m.jobs[victim]; ok && cur.State().Terminal() {
			delete(m.jobs, victim)
			delete(m.execs, victim)
		}
	}
}

// countFinished is the terminal accounting of one job: the per-state
// counter and the end-to-end latency histogram (admission to terminal
// state). Job.finish runs it before the job's Done channel closes.
func (m *Manager) countFinished(s State, dur time.Duration) {
	if c, ok := m.finished[s]; ok {
		c.Inc()
	}
	if h, ok := m.jobDur[s]; ok && dur > 0 {
		h.Observe(dur.Seconds())
	}
}

// evictLocked removes a terminal job so a fresh incarnation can take its
// id. Caller holds m.mu.
func (m *Manager) evictLocked(id string) {
	delete(m.jobs, id)
	for i, tid := range m.termOrder {
		if tid == id {
			m.termOrder = append(m.termOrder[:i], m.termOrder[i+1:]...)
			break
		}
	}
}

// runJob executes one dequeued job: claim it, arm deadline and faults,
// restore or create its checkpointer, mine under containment, and map
// the outcome onto the terminal states — checkpointing on every
// non-success so the work is never lost.
func (m *Manager) runJob(j *Job) {
	j.mu.Lock()
	if j.state != StateQueued || j.canceled {
		terminal := j.state.Terminal()
		j.mu.Unlock()
		if !terminal {
			m.finishJob(j, StateCanceled, nil, context.Canceled)
		}
		return
	}
	timeout := m.cfg.JobTimeout
	if j.req.Timeout > 0 && (timeout <= 0 || j.req.Timeout < timeout) {
		timeout = j.req.Timeout
	}
	var ctx context.Context
	var cancel context.CancelFunc
	if timeout > 0 {
		ctx, cancel = context.WithTimeout(m.baseCtx, timeout)
	} else {
		ctx, cancel = context.WithCancel(m.baseCtx)
	}
	j.state = StateRunning
	j.started = time.Now()
	j.cancel = cancel
	j.mu.Unlock()
	defer cancel()

	// The run's root span: everything the job does — local engine
	// recursion or coordinator shard fan-out — hangs off this span in
	// the assembled timeline.
	sp := m.obs.WithTrace(j.trace, 0).Span("job")
	j.mu.Lock()
	j.rootSpan = sp.ID()
	j.mu.Unlock()

	m.executed.Inc()
	m.mu.Lock()
	m.execs[j.id]++
	m.mu.Unlock()

	cp, ckptPath := m.checkpointFor(j)
	stopSnapshots := m.periodicSnapshots(j, cp, ckptPath)
	if f := m.cfg.Faults; f != nil {
		f.OnCancel(cancel)
	}

	res, err := m.mine(ctx, j, cp)
	stopSnapshots()

	state := StateDone
	switch {
	case err == nil:
		if ckptPath != "" {
			m.cfg.FS.Remove(ckptPath) // the run finished; the checkpoint is obsolete
		}
	case errors.Is(err, context.Canceled):
		m.writeCheckpoint(j, cp, ckptPath)
		state, res = StateCanceled, nil
	default:
		// Deadline, contained panic, budget breach, malformed input:
		// keep the completed partitions — an identical resubmission
		// resumes instead of restarting.
		m.writeCheckpoint(j, cp, ckptPath)
		state, res = StateFailed, nil
	}
	// The root span ends before the job turns terminal, so a caller
	// woken by Done reads a timeline that already holds it.
	sp.End()
	m.finishJob(j, state, res, err)
}

// checkpointable reports whether the algorithm supports partition
// checkpointing (the disc-all family; the baselines mine monolithically).
func checkpointable(algo string) bool {
	return algo == "disc-all" || algo == "dynamic-disc-all"
}

// checkpointFor returns the job's checkpointer — seeded from a prior
// run's file when one exists and belongs to this job — and the path its
// snapshots go to. Returns (nil, "") when checkpointing is off.
func (m *Manager) checkpointFor(j *Job) (*core.Checkpointer, string) {
	if m.cfg.CheckpointDir == "" || !checkpointable(j.req.Algo) {
		return nil, ""
	}
	path := filepath.Join(m.cfg.CheckpointDir, j.id+".ckpt")
	switch f, err := checkpoint.ReadFileFS(m.cfg.FS, path); {
	case err == nil && f.Fingerprint == j.fp && f.Algo == j.req.Algo && f.MinSup == j.req.MinSup:
		j.mu.Lock()
		j.resumed = len(f.Partitions)
		j.mu.Unlock()
		m.resumed.Inc()
		m.logf("jobs: %s resuming from checkpoint (%d completed partitions)", j.id, len(f.Partitions))
		return core.ResumeFrom(f), path
	case err == nil:
		m.logf("jobs: %s ignoring checkpoint at %s: belongs to a different job", j.id, path)
	case checkpoint.Undecodable(err):
		// Corrupt or torn: the CRC caught it. Quarantine the file so the
		// evidence survives and the job mines from scratch — crashing, or
		// tripping over the same file every restart, helps nobody.
		m.store.Quarantine(path, err)
	case !errors.Is(err, os.ErrNotExist):
		m.logf("jobs: %s ignoring unreadable checkpoint at %s: %v", j.id, path, err)
	}
	return core.NewCheckpointer(), path
}

// periodicSnapshots writes the checkpoint every CheckpointInterval while
// the job runs, so kill -9 loses at most one interval of work. The
// returned stop function is idempotent and synchronous: it does not
// return until the snapshot goroutine has exited, so a caller that
// writes the same checkpoint path afterwards (runJob's final write)
// can never race an in-flight periodic write.
func (m *Manager) periodicSnapshots(j *Job, cp *core.Checkpointer, path string) func() {
	if cp == nil || path == "" || m.cfg.CheckpointInterval <= 0 {
		return func() {}
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	var once sync.Once
	go func() {
		defer close(done)
		tick := time.NewTicker(m.cfg.CheckpointInterval)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				m.writeCkpt(j, cp, path)
			case <-stop:
				return
			}
		}
	}()
	return func() {
		once.Do(func() { close(stop) })
		<-done
	}
}

func (m *Manager) writeCheckpoint(j *Job, cp *core.Checkpointer, path string) {
	if cp == nil || path == "" {
		return
	}
	if !m.store.Attempt() {
		return // degraded and no probe due: mining continues, durability off
	}
	start := time.Now()
	n, err := cp.File(j.req.Algo, j.req.MinSup, j.fp).WriteFileFS(m.cfg.FS, path)
	if err != nil {
		m.ckptFailures.Inc()
		j.trace.Event("checkpoint-failed", j.rootSpanID(),
			map[string]string{"error": err.Error()})
		if m.store.Failed(err) {
			j.trace.Event("degrade-latch", j.rootSpanID(),
				map[string]string{"error": err.Error()})
		}
		m.logf("jobs: %s checkpoint write failed: %v", j.id, err)
		return
	}
	m.store.OK()
	m.ckptDur.Observe(time.Since(start).Seconds())
	m.ckptBytes.Observe(float64(n))
	j.trace.Event("checkpoint-write", j.rootSpanID(),
		map[string]string{"bytes": fmt.Sprint(n)})
}

// DurabilityStatus is the durability view /healthz serves: whether
// checkpointing is currently degraded and what the last failure was.
type DurabilityStatus struct {
	Degraded            bool      `json:"degraded"`
	ConsecutiveFailures int       `json:"consecutive_failures,omitempty"`
	CheckpointFailures  int64     `json:"checkpoint_failures_total"`
	LastError           string    `json:"last_error,omitempty"`
	LastErrorAt         time.Time `json:"last_error_at"`
}

// Durability snapshots the manager's durability state.
func (m *Manager) Durability() DurabilityStatus {
	l := m.store.State()
	s := DurabilityStatus{
		Degraded:            l.Degraded,
		ConsecutiveFailures: l.ConsecutiveFailures,
		CheckpointFailures:  m.ckptFailures.Value(),
		LastErrorAt:         l.LastErrorAt,
	}
	if l.LastError != nil {
		s.LastError = l.LastError.Error()
	}
	return s
}

// tighterBudget resolves a per-request resource budget against the
// service-wide one: the minimum of the pair, where zero means unset
// rather than zero capacity.
func tighterBudget[T int | int64](request, service T) T {
	switch {
	case request <= 0:
		return service
	case service <= 0:
		return request
	case request < service:
		return request
	default:
		return service
	}
}

// minerFor builds the requested algorithm with the job's options (the
// disc-all family natively; everything else through the registry).
func minerFor(algo string, opts core.Options) (mining.Miner, error) {
	switch algo {
	case "disc-all":
		return &core.Miner{Opts: opts}, nil
	case "dynamic-disc-all":
		return &core.Dynamic{Opts: opts}, nil
	}
	return mining.NewRegistered(algo)
}

// defaultMine runs the job's mining under service-boundary panic
// containment: a panic anywhere outside the engine's own contained
// goroutines — option plumbing, miner construction, result handling —
// still degrades to a typed *mining.InvariantError on this job instead
// of killing the process.
func (m *Manager) defaultMine(ctx context.Context, j *Job, cp *core.Checkpointer) (*mining.Result, error) {
	var res *mining.Result
	err := mining.Contain("job:"+j.id, func() error {
		if f := m.cfg.Faults; f != nil {
			f.Panic(faultinject.WorkerPanic, "job:"+j.id)
		}
		opts := j.req.Opts
		// The effective budget is the tighter of the request's and the
		// service's — a zero on either side means "no opinion", not
		// "unlimited overrides": the service cap still binds a request
		// that asked for nothing, and a request's tighter cap survives a
		// service with no configured limit.
		opts.MaxPatterns = tighterBudget(opts.MaxPatterns, m.cfg.MaxPatterns)
		opts.MaxMemBytes = tighterBudget(opts.MaxMemBytes, m.cfg.MaxMemBytes)
		if m.cfg.Mine != nil {
			req := j.req
			req.Opts = opts
			req.Trace = j.trace
			req.ParentSpan = j.rootSpanID()
			req.Fingerprint = j.fp
			r, err := m.cfg.Mine(ctx, req, cp)
			if err != nil {
				return err
			}
			res = r
			return nil
		}
		opts.Checkpoint = cp
		opts.Faults = m.cfg.Faults
		opts.Obs = m.obs.WithTrace(j.trace, j.rootSpanID())
		miner, err := minerFor(j.req.Algo, opts)
		if err != nil {
			return err
		}
		r, err := mining.AsContextMiner(miner).MineContext(ctx, j.req.DB, j.req.MinSup)
		if err != nil {
			return err
		}
		res = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}
