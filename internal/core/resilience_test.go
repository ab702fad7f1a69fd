package core

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"

	"github.com/disc-mining/disc/internal/faultinject"
	"github.com/disc-mining/disc/internal/mining"
	"github.com/disc-mining/disc/internal/seq"
	"github.com/disc-mining/disc/internal/testutil"
)

// TestWorkerPanicContained is the regression test for the uncatchable
// worker-goroutine panic (any invariant panic inside a partition worker):
// a panic injected at a partition boundary must come back from Mine as
// an *mining.InvariantError — carrying the partition and a stack — with
// the process alive and the run drained, at every worker count.
func TestWorkerPanicContained(t *testing.T) {
	db := testutil.Table6()
	for _, workers := range []int{1, 2, 8} {
		inj := faultinject.New(9).Arm(faultinject.WorkerPanic, faultinject.Spec{AfterN: 3})
		m := &Miner{Opts: Options{BiLevel: true, Levels: 2, Workers: workers, Faults: inj}}
		res, err := m.Mine(db, 2)
		if res != nil || err == nil {
			t.Fatalf("workers=%d: Mine = (%v, %v), want contained panic error", workers, res, err)
		}
		if !errors.Is(err, mining.ErrInternalInvariant) {
			t.Fatalf("workers=%d: err %v does not match ErrInternalInvariant", workers, err)
		}
		var ie *mining.InvariantError
		if !errors.As(err, &ie) {
			t.Fatalf("workers=%d: err %T is not *InvariantError", workers, err)
		}
		if len(ie.Stack) == 0 || ie.Partition == "" {
			t.Errorf("workers=%d: InvariantError missing stack or partition: %+v", workers, ie)
		}
		var fault *faultinject.Fault
		if !errors.As(err, &fault) {
			t.Errorf("workers=%d: panic value not unwrapped: %v", workers, err)
		}
		if inj.Fired(faultinject.WorkerPanic) != 1 {
			t.Errorf("workers=%d: fault fired %d times", workers, inj.Fired(faultinject.WorkerPanic))
		}
	}
}

// TestInjectedPanicNamesItsPartition: the partition a contained panic
// reports is the one it fired in, although the engine formats that name
// only once a panic is recovered. A checkpointed single-worker run walks
// its first-level partitions inline, in ascending key order, each under
// its own containment, so the second partition boundary it reaches is
// the first first-level partition's.
func TestInjectedPanicNamesItsPartition(t *testing.T) {
	inj := faultinject.New(9).Arm(faultinject.WorkerPanic, faultinject.Spec{AfterN: 2})
	m := &Miner{Opts: Options{BiLevel: true, Levels: 2, Workers: 1, Checkpoint: NewCheckpointer(), Faults: inj}}
	_, err := m.Mine(testutil.Table6(), 3)
	var ie *mining.InvariantError
	var fault *faultinject.Fault
	if !errors.As(err, &ie) || !errors.As(err, &fault) {
		t.Fatalf("Mine = %v, want an *InvariantError carrying the injected fault", err)
	}
	want := seq.MustParsePattern("(a)").String()
	if fault.Site != want || ie.Partition != want {
		t.Fatalf("fault fired at %q, contained as partition %q; want both %q", fault.Site, ie.Partition, want)
	}
}

// TestPanicContainedEverySite: arming the panic point at every partition
// boundary with probability 1 must still return an error (never crash),
// wherever the first panic lands — including the root walk.
func TestPanicContainedEverySite(t *testing.T) {
	r := rand.New(rand.NewSource(91))
	db := testutil.SkewedRandomDB(r, 50, 10, 6, 4)
	for _, workers := range []int{1, 8} {
		inj := faultinject.New(5).Arm(faultinject.WorkerPanic, faultinject.Spec{Prob: 1})
		m := &Dynamic{Opts: Options{BiLevel: true, Gamma: 0.5, Workers: workers, Faults: inj}}
		if _, err := m.Mine(db, 2); !errors.Is(err, mining.ErrInternalInvariant) {
			t.Fatalf("workers=%d: err = %v, want ErrInternalInvariant", workers, err)
		}
	}
}

// interruptRun mines db with an injected cancellation at the n-th
// partition boundary and a checkpointer attached, returning the
// checkpointer (with whatever completed).
func interruptRun(t *testing.T, mk func(Options) mining.ContextMiner, base Options, db mining.Database, minSup, n int) *Checkpointer {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cp := NewCheckpointer()
	inj := faultinject.New(int64(n)).
		Arm(faultinject.CtxCancel, faultinject.Spec{AfterN: n}).
		OnCancel(cancel)
	opts := base
	opts.Checkpoint = cp
	opts.Faults = inj
	res, err := mk(opts).MineContext(ctx, db, minSup)
	if inj.Fired(faultinject.CtxCancel) == 0 {
		// The run finished before the n-th boundary: that is a valid
		// outcome (checkpoint holds everything); it must have succeeded.
		if err != nil {
			t.Fatalf("uninterrupted run failed: %v", err)
		}
	} else if err != context.Canceled {
		t.Fatalf("interrupted run: (%v, %v), want context.Canceled", res, err)
	}
	return cp
}

// TestCheckpointResumeByteIdentical: kill a run at assorted partition
// boundaries, resume from the recorded checkpoint, and require the
// resumed result set to render byte-identically to a straight run —
// for the static and dynamic algorithms at one and many workers.
func TestCheckpointResumeByteIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(92))
	db := testutil.SkewedRandomDB(r, 90, 12, 6, 4)
	const minSup = 2
	for _, tc := range []struct {
		name string
		mk   func(Options) mining.ContextMiner
		base Options
	}{
		{"disc-all", func(o Options) mining.ContextMiner { return &Miner{Opts: o} },
			Options{BiLevel: true, Levels: 2}},
		{"dynamic", func(o Options) mining.ContextMiner { return &Dynamic{Opts: o} },
			Options{BiLevel: true, Gamma: 0.5}},
	} {
		for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
			opts := tc.base
			opts.Workers = workers
			straightM := tc.mk(opts)
			straight, err := straightM.MineContext(context.Background(), db, minSup)
			if err != nil {
				t.Fatal(err)
			}
			want := renderSorted(straight)
			for _, killAt := range []int{1, 3, 7, 20} {
				cp := interruptRun(t, tc.mk, opts, db, minSup, killAt)
				resumed := ResumeFrom(cp.File(tc.name, minSup, 0))
				ropts := opts
				ropts.Checkpoint = resumed
				res, err := tc.mk(ropts).MineContext(context.Background(), db, minSup)
				if err != nil {
					t.Fatalf("%s workers=%d killAt=%d: resume failed: %v", tc.name, workers, killAt, err)
				}
				if got := renderSorted(res); got != want {
					t.Fatalf("%s workers=%d killAt=%d: resumed result differs from straight run\n%s",
						tc.name, workers, killAt, straight.Diff(res))
				}
				if cp.Completed() > 0 && resumed.Restored() == 0 && killAt > 1 {
					t.Errorf("%s workers=%d killAt=%d: checkpoint had %d partitions but resume restored none",
						tc.name, workers, killAt, cp.Completed())
				}
			}
		}
	}
}

// TestCheckpointedStatsMatchStraightRun: a resumed run's merged
// statistics must equal a straight run's (restored partition statistics
// merge exactly like live ones).
func TestCheckpointedStatsMatchStraightRun(t *testing.T) {
	r := rand.New(rand.NewSource(93))
	db := testutil.SkewedRandomDB(r, 80, 12, 6, 4)
	opts := Options{BiLevel: true, Levels: 2, Workers: 4}
	ms := &Miner{Opts: opts}
	if _, err := ms.Mine(db, 2); err != nil {
		t.Fatal(err)
	}
	cp := interruptRun(t, func(o Options) mining.ContextMiner { return &Miner{Opts: o} }, opts, db, 2, 4)
	ropts := opts
	ropts.Checkpoint = ResumeFrom(cp.File("disc-all", 2, 0))
	mr := &Miner{Opts: ropts}
	if _, err := mr.Mine(db, 2); err != nil {
		t.Fatal(err)
	}
	s, p := ms.LastStats(), mr.LastStats()
	if s.Rounds != p.Rounds || s.FrequentHits != p.FrequentHits || s.Skips != p.Skips ||
		s.KMSCalls != p.KMSCalls || s.CKMSCalls != p.CKMSCalls || s.Dropped != p.Dropped {
		t.Errorf("counters differ:\nstraight %+v\nresumed  %+v", s, p)
	}
}

// TestBudgetPatternsExceeded: a pattern budget far below the true result
// size stops the run with a typed *BudgetError; partial statistics stay
// available through LastStats.
func TestBudgetPatternsExceeded(t *testing.T) {
	r := rand.New(rand.NewSource(94))
	db := testutil.SkewedRandomDB(r, 80, 12, 6, 4)
	for _, workers := range []int{1, 8} {
		m := &Miner{Opts: Options{BiLevel: true, Levels: 2, Workers: workers, MaxPatterns: 5}}
		res, err := m.Mine(db, 2)
		if res != nil || !errors.Is(err, mining.ErrBudgetExceeded) {
			t.Fatalf("workers=%d: Mine = (%v, %v), want ErrBudgetExceeded", workers, res, err)
		}
		var be *mining.BudgetError
		if !errors.As(err, &be) || be.Resource != "patterns" || be.Limit != 5 || be.Used <= 5 {
			t.Fatalf("workers=%d: BudgetError = %+v", workers, be)
		}
		if st := m.LastStats(); len(st.PartitionsByLevel) == 0 || st.PartitionsByLevel[0] == 0 {
			t.Errorf("workers=%d: no partial stats after budget stop: %+v", workers, st)
		}
	}
}

// TestBudgetMemoryExceeded: an absurdly small memory budget trips on the
// first heap sample with a typed memory BudgetError.
func TestBudgetMemoryExceeded(t *testing.T) {
	m := &Miner{Opts: Options{BiLevel: true, Levels: 2, Workers: 1, MaxMemBytes: 1}}
	_, err := m.Mine(testutil.Table6(), 2)
	var be *mining.BudgetError
	if !errors.As(err, &be) || be.Resource != "memory" {
		t.Fatalf("err = %v, want memory BudgetError", err)
	}
}

// TestDegradedRunCompletesWithProgress: a budget the run meets exactly
// triggers degradation (the 80% threshold is crossed) but not failure —
// the result is identical to an unbudgeted run, Stats.Degraded reports
// the ladder was entered, and every first-level partition still emits
// its progress event.
func TestDegradedRunCompletesWithProgress(t *testing.T) {
	r := rand.New(rand.NewSource(95))
	db := testutil.SkewedRandomDB(r, 80, 12, 6, 4)
	ref, err := (&Miner{Opts: Options{BiLevel: true, Levels: 2, Workers: 4}}).Mine(db, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		var mu sync.Mutex
		var events []mining.ProgressEvent
		m := &Miner{Opts: Options{
			BiLevel: true, Levels: 2, Workers: workers,
			MaxPatterns: ref.Len(), // crossed at 80%, never exceeded
			Progress: func(ev mining.ProgressEvent) {
				mu.Lock()
				events = append(events, ev)
				mu.Unlock()
			},
		}}
		res, err := m.Mine(db, 2)
		if err != nil {
			t.Fatalf("workers=%d: degraded run failed: %v", workers, err)
		}
		if got, want := renderSorted(res), renderSorted(ref); got != want {
			t.Fatalf("workers=%d: degraded run changed the result set:\n%s", workers, ref.Diff(res))
		}
		if !m.LastStats().Degraded {
			t.Errorf("workers=%d: Stats.Degraded not set", workers)
		}
		if len(events) == 0 {
			t.Fatalf("workers=%d: no progress events during degraded run", workers)
		}
		last := events[len(events)-1]
		if last.Done != last.Total || last.Total == 0 {
			t.Errorf("workers=%d: progress did not complete during degraded run: %+v", workers, last)
		}
	}
}

// TestProgressNeverConcurrent pins the documented ProgressFunc
// guarantee: the callback never runs concurrently with itself, at every
// worker count from 1 to GOMAXPROCS. The callback mutates shared state
// without synchronization — under -race any overlap is a detected race,
// and the explicit in-flight flag catches overlap even without -race.
func TestProgressNeverConcurrent(t *testing.T) {
	r := rand.New(rand.NewSource(96))
	db := testutil.SkewedRandomDB(r, 100, 12, 6, 4)
	for workers := 1; workers <= runtime.GOMAXPROCS(0); workers++ {
		inFlight := false
		calls := 0
		var sink strings.Builder // unsynchronized mutation the race detector watches
		m := &Miner{Opts: Options{BiLevel: true, Levels: 2, Workers: workers,
			Progress: func(ev mining.ProgressEvent) {
				if inFlight {
					t.Error("ProgressFunc re-entered concurrently")
				}
				inFlight = true
				calls++
				sink.WriteByte(byte(ev.Done))
				inFlight = false
			}}}
		if _, err := m.Mine(db, 2); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if calls == 0 {
			t.Fatalf("workers=%d: progress callback never ran", workers)
		}
	}
}
