package jobs

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/disc-mining/disc/internal/core"
	"github.com/disc-mining/disc/internal/faultinject"
	"github.com/disc-mining/disc/internal/mining"
	"github.com/disc-mining/disc/internal/seq"
	"github.com/disc-mining/disc/internal/testutil"
)

// reqFor is the canonical test request: DISC-all with the paper's
// options over db.
func reqFor(db mining.Database, minSup int) Request {
	return Request{
		Algo:   "disc-all",
		MinSup: minSup,
		Opts:   core.Options{BiLevel: true, Levels: 2, Workers: 2},
		DB:     db,
	}
}

// smallDB returns a tiny database whose content varies with i, so tests
// can mint distinct job fingerprints on demand.
func smallDB(i int) mining.Database {
	a := seq.MustParseCustomerSeq(1, "(1 2)(3)")
	b := seq.MustParseCustomerSeq(2, "(2)(3)(4)")
	c := seq.MustParseCustomerSeq(3, seqBody(i))
	return mining.Database{a, b, c}
}

func seqBody(i int) string {
	var b strings.Builder
	b.WriteString("(1)")
	for ; i > 0; i-- {
		b.WriteString("(2 3)")
	}
	return b.String()
}

func waitTerminal(t *testing.T, j *Job) Status {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(30 * time.Second):
		t.Fatalf("job %s never reached a terminal state (%s)", j.ID(), j.State())
	}
	return j.Status()
}

func drain(t *testing.T, m *Manager) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := m.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

func TestSubmitMinesAndServesFromCache(t *testing.T) {
	m := NewManager(Config{Workers: 2})
	defer drain(t, m)

	req := reqFor(testutil.Table1(), 2)
	j, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, j)
	if st.State != StateDone || st.Patterns == 0 {
		t.Fatalf("status = %+v", st)
	}

	// The reference engine agrees byte-for-byte.
	ref, err := (&core.Miner{Opts: core.Options{BiLevel: true, Levels: 2}}).Mine(req.DB, req.MinSup)
	if err != nil {
		t.Fatal(err)
	}
	res, ok := j.Result()
	if !ok {
		t.Fatal("done job has no result")
	}
	var got, want strings.Builder
	if err := WriteResult(&got, res); err != nil {
		t.Fatal(err)
	}
	if err := WriteResult(&want, ref); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Fatalf("service result diverges from engine:\n%s", ref.Diff(res))
	}

	// An identical resubmission is a cache hit on the same job — no
	// second execution.
	j2, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if j2 != j {
		t.Fatal("identical resubmission returned a different job")
	}
	if n := m.ExecCount(j.ID()); n != 1 {
		t.Fatalf("executions = %d, want 1", n)
	}
	met := m.Metrics()
	if met.CacheHits != 1 || met.Done != 1 || met.Submitted != 1 {
		t.Fatalf("metrics = %+v", met)
	}
}

// TestMineHookGetsAdmissionFingerprint: a Mine hook receives the
// fingerprint the manager computed at admission, so it need not hash the
// database again; a submission cannot set it, and a request without one
// computes its own.
func TestMineHookGetsAdmissionFingerprint(t *testing.T) {
	got := make(chan uint64, 1)
	m := NewManager(Config{Workers: 1, Mine: func(_ context.Context, r Request, _ *core.Checkpointer) (*mining.Result, error) {
		got <- r.JobFingerprint()
		return mining.NewResult(), nil
	}})
	defer drain(t, m)
	req := reqFor(smallDB(1), 2)
	want := req.JobFingerprint()
	if want != core.CheckpointFingerprint(req.Algo, req.Opts, req.MinSup, req.DB) {
		t.Fatal("a request without a fingerprint must compute its own")
	}
	req.Fingerprint = want ^ 1
	j, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, j)
	if fp := <-got; fp != want || fmt.Sprintf("%016x", fp) != j.ID() {
		t.Fatalf("Mine hook got fingerprint %016x, want %016x (job %s)", fp, want, j.ID())
	}
}

func TestUnknownAlgorithmRejectedAtAdmission(t *testing.T) {
	m := NewManager(Config{})
	defer drain(t, m)
	if _, err := m.Submit(Request{Algo: "no-such-algo", MinSup: 1, DB: testutil.Table1()}); err == nil {
		t.Fatal("unknown algorithm admitted")
	}
	if met := m.Metrics(); met.Submitted != 0 {
		t.Fatalf("rejected submission counted as admitted: %+v", met)
	}
}

func TestQueueFullShedsLoad(t *testing.T) {
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

	// First job occupies the worker, second the single queue slot.
	j1, err := m.Submit(reqFor(smallDB(1), 2))
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the worker picked up j1, so the queue slot is truly free.
	for i := 0; j1.State() != StateRunning; i++ {
		if i > 5000 {
			t.Fatal("first job never started")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := m.Submit(reqFor(smallDB(2), 2)); err != nil {
		t.Fatal(err)
	}
	// The third distinct job is shed.
	if _, err := m.Submit(reqFor(smallDB(3), 2)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
	if m.RetryAfter() <= 0 {
		t.Fatal("no Retry-After hint configured")
	}
	// A duplicate of a queued/running job is NOT shed: deduplication
	// admits it for free.
	if _, err := m.Submit(reqFor(smallDB(1), 2)); err != nil {
		t.Fatalf("duplicate of running job shed: %v", err)
	}
	met := m.Metrics()
	if met.Shed != 1 || met.Deduped != 1 {
		t.Fatalf("metrics = %+v", met)
	}
	close(release)
	drain(t, m)
}

func TestDrainStopsAdmittingAndFinishesBacklog(t *testing.T) {
	m := NewManager(Config{Workers: 1, QueueDepth: 4})
	j1, err := m.Submit(reqFor(smallDB(1), 2))
	if err != nil {
		t.Fatal(err)
	}
	j2, err := m.Submit(reqFor(smallDB(2), 2))
	if err != nil {
		t.Fatal(err)
	}
	drain(t, m)
	if _, err := m.Submit(reqFor(smallDB(3), 2)); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit during/after drain = %v, want ErrDraining", err)
	}
	// Both the running and the queued job finished, not abandoned.
	if st := j1.Status(); st.State != StateDone {
		t.Fatalf("j1 = %+v", st)
	}
	if st := j2.Status(); st.State != StateDone {
		t.Fatalf("j2 = %+v", st)
	}
}

func TestDrainDeadlineCancelsInFlight(t *testing.T) {
	m := NewManager(Config{Workers: 1})
	m.mine = func(ctx context.Context, j *Job, cp *core.Checkpointer) (*mining.Result, error) {
		<-ctx.Done() // only a forced drain releases this job
		return nil, ctx.Err()
	}
	j, err := m.Submit(reqFor(smallDB(1), 2))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := m.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("forced drain = %v, want DeadlineExceeded", err)
	}
	if st := waitTerminal(t, j); st.State != StateCanceled {
		t.Fatalf("in-flight job after forced drain = %+v, want canceled", st)
	}
}

func TestJobDeadlineFailsTyped(t *testing.T) {
	m := NewManager(Config{Workers: 1, JobTimeout: 20 * time.Millisecond})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		m.Drain(ctx)
	}()
	m.mine = func(ctx context.Context, j *Job, cp *core.Checkpointer) (*mining.Result, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	j, err := m.Submit(reqFor(smallDB(1), 2))
	if err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, j)
	if st.State != StateFailed || !errors.Is(st.Err, context.DeadlineExceeded) {
		t.Fatalf("status = %+v, want failed with DeadlineExceeded", st)
	}
}

func TestBudgetBreachFailsTyped(t *testing.T) {
	m := NewManager(Config{Workers: 1, MaxPatterns: 1})
	defer drain(t, m)
	j, err := m.Submit(reqFor(testutil.Table1(), 1)) // δ=1 floods patterns
	if err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, j)
	if st.State != StateFailed || !errors.Is(st.Err, mining.ErrBudgetExceeded) {
		t.Fatalf("status = %+v, want failed with ErrBudgetExceeded", st)
	}
	var be *mining.BudgetError
	if !errors.As(st.Err, &be) || be.Resource != "patterns" {
		t.Fatalf("err = %v, want *BudgetError{patterns}", st.Err)
	}
}

func TestInjectedPanicContainedProcessKeepsServing(t *testing.T) {
	inj := faultinject.New(1).Arm(faultinject.WorkerPanic, faultinject.Spec{AfterN: 1})
	m := NewManager(Config{Workers: 1, Faults: inj})
	defer drain(t, m)

	j, err := m.Submit(reqFor(smallDB(1), 2))
	if err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, j)
	if st.State != StateFailed || !errors.Is(st.Err, mining.ErrInternalInvariant) {
		t.Fatalf("status = %+v, want failed with ErrInternalInvariant", st)
	}
	var ie *mining.InvariantError
	if !errors.As(st.Err, &ie) {
		t.Fatalf("err %v does not expose *InvariantError", st.Err)
	}

	// The panic was contained to its job: the next job succeeds.
	j2, err := m.Submit(reqFor(smallDB(2), 2))
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, j2); st.State != StateDone {
		t.Fatalf("follow-up job = %+v, want done", st)
	}
}

func TestCancelUnknownJob(t *testing.T) {
	m := NewManager(Config{})
	defer drain(t, m)
	if _, err := m.Cancel("deadbeefdeadbeef"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
	if _, err := m.Get("deadbeefdeadbeef"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
}

func TestCacheEviction(t *testing.T) {
	m := NewManager(Config{Workers: 2, CacheJobs: 2})
	var ids []string
	for i := 1; i <= 4; i++ {
		j, err := m.Submit(reqFor(smallDB(i), 2))
		if err != nil {
			t.Fatal(err)
		}
		waitTerminal(t, j)
		ids = append(ids, j.ID())
	}
	drain(t, m)
	// Only the two newest terminal jobs remain addressable.
	for _, id := range ids[:2] {
		if _, err := m.Get(id); !errors.Is(err, ErrNotFound) {
			t.Errorf("old job %s not evicted (err=%v)", id, err)
		}
	}
	for _, id := range ids[2:] {
		if _, err := m.Get(id); err != nil {
			t.Errorf("recent job %s evicted early: %v", id, err)
		}
	}
}

// TestOrphanedCheckpointsReportedAtStartup: a manager starting over a
// CheckpointDir holding checkpoints from a previous process must say so
// — interrupted work silently waiting on disk is how resumable jobs get
// forgotten.
func TestOrphanedCheckpointsReportedAtStartup(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "deadbeef01234567.ckpt"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var lines []string
	m := NewManager(Config{CheckpointDir: dir, Logf: func(f string, a ...any) {
		mu.Lock()
		lines = append(lines, fmt.Sprintf(f, a...))
		mu.Unlock()
	}})
	defer drain(t, m)
	mu.Lock()
	defer mu.Unlock()
	found := false
	for _, l := range lines {
		if strings.Contains(l, "deadbeef01234567") {
			found = true
		}
	}
	if !found {
		t.Fatalf("startup log never mentioned the orphaned checkpoint: %q", lines)
	}
}
