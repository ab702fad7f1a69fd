package jobs

// Regression tests for manager bugs that became visible once jobs
// started crossing process boundaries (the cluster path multiplies
// them): budget clobbering in defaultMine, the asynchronous periodic-
// snapshot stop racing the final checkpoint write, canceled queued jobs
// leaking their admission slot, cached terminal jobs holding on to
// their parsed database, and terminal accounting trailing Done.

import (
	"context"
	"errors"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"github.com/disc-mining/disc/internal/core"
	"github.com/disc-mining/disc/internal/mining"
	"github.com/disc-mining/disc/internal/testutil"
)

func TestTighterBudget(t *testing.T) {
	cases := []struct{ request, service, want int }{
		{0, 0, 0},  // neither side has an opinion
		{5, 0, 5},  // zero service budget must NOT discard the request's
		{0, 5, 5},  // service cap binds a request that asked for nothing
		{3, 7, 3},  // tighter request wins
		{7, 3, 3},  // tighter service wins
		{-1, 4, 4}, // negatives are unset, like zero
		{4, -1, 4}, //
	}
	for _, c := range cases {
		if got := tighterBudget(c.request, c.service); got != c.want {
			t.Errorf("tighterBudget(%d, %d) = %d, want %d", c.request, c.service, got, c.want)
		}
	}
	if got := tighterBudget(int64(9), int64(0)); got != 9 {
		t.Errorf("tighterBudget[int64](9, 0) = %d, want 9", got)
	}
}

// TestRequestBudgetSurvivesZeroServiceBudget is the end-to-end
// regression: a service with no configured pattern budget used to
// overwrite (and thereby discard) the request's tighter one, so a job
// that asked to stop at 1 pattern ran unbounded.
func TestRequestBudgetSurvivesZeroServiceBudget(t *testing.T) {
	m := NewManager(Config{Workers: 1}) // MaxPatterns = 0: no service budget
	defer drain(t, m)

	req := reqFor(testutil.Table1(), 1) // δ=1 floods patterns
	req.Opts.MaxPatterns = 1
	j, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, j)
	if st.State != StateFailed || !errors.Is(st.Err, mining.ErrBudgetExceeded) {
		t.Fatalf("status = %+v, want failed with ErrBudgetExceeded (request budget was discarded)", st)
	}
}

// TestServiceBudgetStillBindsLooseRequest pins the other direction: the
// minimum rule must not let a request opt out of the service's limits.
func TestServiceBudgetStillBindsLooseRequest(t *testing.T) {
	m := NewManager(Config{Workers: 1, MaxPatterns: 1})
	defer drain(t, m)

	req := reqFor(testutil.Table1(), 1)
	req.Opts.MaxPatterns = 1 << 30 // far looser than the service's
	j, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, j)
	if st.State != StateFailed || !errors.Is(st.Err, mining.ErrBudgetExceeded) {
		t.Fatalf("status = %+v, want failed with ErrBudgetExceeded (service budget was overridden)", st)
	}
}

// TestPeriodicSnapshotsStopSynchronous pins the stop contract: the stop
// function returned by periodicSnapshots must not return while a
// periodic checkpoint write is still in flight, because runJob writes
// the same path immediately after calling it.
func TestPeriodicSnapshotsStopSynchronous(t *testing.T) {
	dir := t.TempDir()
	m := NewManager(Config{CheckpointDir: dir, CheckpointInterval: time.Millisecond})
	defer drain(t, m)

	entered := make(chan struct{}, 64)
	release := make(chan struct{})
	m.writeCkpt = func(j *Job, cp *core.Checkpointer, path string) {
		select {
		case entered <- struct{}{}:
		default:
		}
		<-release
	}

	req := reqFor(smallDB(1), 2).normalize()
	j := newJob("0000000000000001", 1, req)
	stop := m.periodicSnapshots(j, core.NewCheckpointer(), filepath.Join(dir, j.id+".ckpt"))

	<-entered // a periodic write is now in flight and blocked

	stopped := make(chan struct{})
	go func() {
		stop()
		close(stopped)
	}()
	select {
	case <-stopped:
		t.Fatal("stop returned while a periodic checkpoint write was still in flight")
	case <-time.After(100 * time.Millisecond):
	}
	close(release) // let the blocked write finish; stop must now return
	select {
	case <-stopped:
	case <-time.After(5 * time.Second):
		t.Fatal("stop never returned after the in-flight write finished")
	}
	stop() // idempotent, and still synchronous
}

// TestPeriodicSnapshotsNoFinalWriteRace runs real jobs with a snapshot
// interval shorter than the job, so under -race an asynchronous stop
// would let the periodic writer overlap runJob's final writeCheckpoint
// on the same path.
func TestPeriodicSnapshotsNoFinalWriteRace(t *testing.T) {
	m := NewManager(Config{
		Workers:            2,
		CheckpointDir:      t.TempDir(),
		CheckpointInterval: time.Millisecond,
	})
	for i := 1; i <= 8; i++ {
		j, err := m.Submit(reqFor(smallDB(i), 2))
		if err != nil {
			t.Fatal(err)
		}
		if st := waitTerminal(t, j); st.State != StateDone {
			t.Fatalf("job %d = %+v", i, st)
		}
	}
	drain(t, m)
}

// TestCanceledQueuedJobFreesQueueSlot is the admission-accounting
// regression: a job canceled while queued turns terminal immediately
// and must free its queue slot at that moment — QueueDepth drops, and a
// new submission is admitted instead of shed.
func TestCanceledQueuedJobFreesQueueSlot(t *testing.T) {
	m := NewManager(Config{Workers: 1, QueueDepth: 1})
	release := make(chan struct{})
	m.mine = func(ctx context.Context, j *Job, cp *core.Checkpointer) (*mining.Result, error) {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-release:
			return mining.NewResult(), nil
		}
	}

	// j1 occupies the worker, j2 the single queue slot.
	j1, err := m.Submit(reqFor(smallDB(1), 2))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; j1.State() != StateRunning; i++ {
		if i > 5000 {
			t.Fatal("first job never started")
		}
		time.Sleep(time.Millisecond)
	}
	j2, err := m.Submit(reqFor(smallDB(2), 2))
	if err != nil {
		t.Fatal(err)
	}
	if d := m.QueueDepth(); d != 1 {
		t.Fatalf("QueueDepth = %d, want 1", d)
	}

	// Cancel the queued job: it is terminal now, and its slot is free.
	if _, err := m.Cancel(j2.ID()); err != nil {
		t.Fatal(err)
	}
	if st := j2.Status(); st.State != StateCanceled {
		t.Fatalf("canceled queued job = %+v", st)
	}
	if d := m.QueueDepth(); d != 0 {
		t.Fatalf("QueueDepth after canceling the queued job = %d, want 0", d)
	}
	if q := m.Metrics().Queued; q != 0 {
		t.Fatalf("Metrics.Queued = %d, want 0", q)
	}

	// The freed slot admits a new job instead of shedding it.
	j3, err := m.Submit(reqFor(smallDB(3), 2))
	if err != nil {
		t.Fatalf("submission after queued-job cancel shed: %v", err)
	}

	close(release)
	if st := waitTerminal(t, j1); st.State != StateDone {
		t.Fatalf("j1 = %+v", st)
	}
	if st := waitTerminal(t, j3); st.State != StateDone {
		t.Fatalf("j3 = %+v", st)
	}
	// The canceled job never ran.
	if n := m.ExecCount(j2.ID()); n != 0 {
		t.Fatalf("canceled queued job executed %d times, want 0", n)
	}
	drain(t, m)
}

// TestTerminalJobsReleaseDatabase is the memory regression for the
// completed-job cache: a job that finished done, failed, or canceled
// before it ever ran must no longer reference its database, and an
// identical resubmission of the done job must still hit the cache.
func TestTerminalJobsReleaseDatabase(t *testing.T) {
	m := NewManager(Config{Workers: 1, QueueDepth: 4})
	defer drain(t, m)
	release := make(chan struct{})
	m.mine = func(ctx context.Context, j *Job, cp *core.Checkpointer) (*mining.Result, error) {
		if j.req.MinSup == 3 { // the blocker holds the only worker
			<-release
		}
		return m.defaultMine(ctx, j, cp)
	}
	submit := func(req Request) *Job {
		t.Helper()
		j, err := m.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		return j
	}

	blocker := submit(reqFor(smallDB(1), 3))
	for i := 0; blocker.State() != StateRunning; i++ {
		if i > 5000 {
			t.Fatal("blocker never started")
		}
		time.Sleep(time.Millisecond)
	}
	canceled := submit(reqFor(smallDB(2), 2))
	if _, err := m.Cancel(canceled.ID()); err != nil {
		t.Fatal(err)
	}
	close(release)
	done := submit(reqFor(testutil.Table1(), 2))
	failing := reqFor(smallDB(3), 1)
	failing.Opts.MaxPatterns = 1
	failed := submit(failing)

	for _, c := range []struct {
		j    *Job
		want State
	}{{blocker, StateDone}, {canceled, StateCanceled}, {done, StateDone}, {failed, StateFailed}} {
		if st := waitTerminal(t, c.j); st.State != c.want {
			t.Fatalf("job %s = %+v, want %s", c.j.ID(), st, c.want)
		}
		c.j.mu.Lock()
		db := c.j.req.DB
		c.j.mu.Unlock()
		if db != nil {
			t.Errorf("%s job %s still references its database", c.want, c.j.ID())
		}
	}
	if n := m.ExecCount(canceled.ID()); n != 0 {
		t.Fatalf("canceled queued job executed %d times, want 0", n)
	}

	hits := m.Metrics().CacheHits
	again := submit(reqFor(testutil.Table1(), 2))
	if again != done {
		t.Fatal("identical resubmission of a done job returned a different job")
	}
	if res, ok := again.Result(); !ok || res.Len() == 0 {
		t.Fatal("cached job lost its result")
	}
	if got := m.Metrics().CacheHits; got != hits+1 {
		t.Fatalf("cache hits = %d, want %d", got, hits+1)
	}
	if n := m.ExecCount(done.ID()); n != 1 {
		t.Fatalf("done job executed %d times, want 1", n)
	}
}

// TestFinishedCountedBeforeDone is the regression test for terminal
// accounting trailing the Done channel: a caller woken by Done must find
// the job already counted in disc_jobs_finished_total, which Metrics
// reads. The waiter polls Done instead of parking on it, so it wakes as
// soon as the channel closes, before a finishing goroutine that counts
// the job afterwards gets there. It needs two CPUs to catch that order.
func TestFinishedCountedBeforeDone(t *testing.T) {
	m := NewManager(Config{Workers: 1, QueueDepth: 1, CacheJobs: 1})
	defer drain(t, m)
	m.mine = func(context.Context, *Job, *core.Checkpointer) (*mining.Result, error) {
		return mining.NewResult(), nil
	}
	for i := 1; i <= 300; i++ {
		j, err := m.Submit(reqFor(smallDB(i), 2))
		if err != nil {
			t.Fatal(err)
		}
		for done := false; !done; {
			select {
			case <-j.Done():
				done = true
			default:
				runtime.Gosched() // lets a single CPU run the job
			}
		}
		// The counter first: Metrics takes locks before it reads it.
		if got := m.finished[StateDone].Value(); got != int64(i) {
			t.Fatalf("job %d: Done closed with disc_jobs_finished_total{state=done} = %d, want %d", i, got, i)
		}
		if got := m.Metrics().Done; got != i {
			t.Fatalf("job %d: Done closed with Metrics().Done = %d, want %d", i, got, i)
		}
	}
}
