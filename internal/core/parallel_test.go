package core

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/disc-mining/disc/internal/mining"
	"github.com/disc-mining/disc/internal/seq"
	"github.com/disc-mining/disc/internal/testutil"
)

// renderSorted serializes a result set byte-for-byte comparably.
func renderSorted(res *mining.Result) string {
	var b strings.Builder
	for _, pc := range res.Sorted() {
		fmt.Fprintf(&b, "%s=%d\n", pc.Pattern, pc.Support)
	}
	return b.String()
}

// TestParallelDeterminism: for several generated databases and δ values,
// Workers: 1 and Workers: 8 must produce byte-identical Sorted() output
// (patterns and supports) for both the static and the dynamic algorithm.
// Run under -race this also exercises the scheduler for data races.
func TestParallelDeterminism(t *testing.T) {
	r := rand.New(rand.NewSource(71))
	for i := 0; i < 6; i++ {
		db := testutil.SkewedRandomDB(r, 60+r.Intn(60), 10, 6, 4)
		minSup := 2 + r.Intn(5)
		for _, mk := range []func(workers int) mining.Miner{
			func(w int) mining.Miner { return &Miner{Opts: Options{BiLevel: true, Levels: 2, Workers: w}} },
			func(w int) mining.Miner { return &Miner{Opts: Options{BiLevel: false, Levels: 3, Workers: w}} },
			func(w int) mining.Miner { return &Dynamic{Opts: Options{BiLevel: true, Gamma: 0.5, Workers: w}} },
		} {
			serial, err := mk(1).Mine(db, minSup)
			if err != nil {
				t.Fatal(err)
			}
			parallel, err := mk(8).Mine(db, minSup)
			if err != nil {
				t.Fatal(err)
			}
			if s, p := renderSorted(serial), renderSorted(parallel); s != p {
				t.Fatalf("db %d δ=%d: workers=1 and workers=8 outputs differ:\n%s", i, minSup,
					serial.Diff(parallel))
			}
		}
	}
}

// TestParallelStatsMatchSerial: the merged statistics of a parallel run
// must carry the same counters as the serial run (the per-level NRR means
// may differ in the last ulps from merge associativity).
func TestParallelStatsMatchSerial(t *testing.T) {
	r := rand.New(rand.NewSource(72))
	db := testutil.SkewedRandomDB(r, 80, 12, 6, 4)
	ms, mp := &Miner{Opts: Options{Levels: 2, Workers: 1}}, &Miner{Opts: Options{Levels: 2, Workers: 8}}
	if _, err := ms.Mine(db, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := mp.Mine(db, 3); err != nil {
		t.Fatal(err)
	}
	s, p := ms.LastStats(), mp.LastStats()
	if s.Rounds != p.Rounds || s.FrequentHits != p.FrequentHits || s.Skips != p.Skips ||
		s.KMSCalls != p.KMSCalls || s.CKMSCalls != p.CKMSCalls || s.Dropped != p.Dropped {
		t.Errorf("counters differ:\nserial   %+v\nparallel %+v", s, p)
	}
	if fmt.Sprint(s.PartitionsByLevel) != fmt.Sprint(p.PartitionsByLevel) {
		t.Errorf("PartitionsByLevel %v vs %v", s.PartitionsByLevel, p.PartitionsByLevel)
	}
	for lvl := range s.NRRByLevel {
		if lvl >= len(p.NRRByLevel) || absDiff(s.NRRByLevel[lvl], p.NRRByLevel[lvl]) > 1e-9 {
			t.Errorf("NRRByLevel[%d]: %v vs %v", lvl, s.NRRByLevel, p.NRRByLevel)
			break
		}
	}
}

func absDiff(a, b float64) float64 {
	if a > b {
		return a - b
	}
	return b - a
}

// slowDB returns a database on which mining takes long enough to cancel
// mid-run (many customers over a small skewed alphabet, low δ).
func slowDB(seed int64) mining.Database {
	r := rand.New(rand.NewSource(seed))
	return testutil.SkewedRandomDB(r, 400, 14, 6, 4)
}

// TestCancellationPrompt: a context cancelled mid-mine must surface
// ctx.Err() promptly (bounded by a generous timeout) with no goroutine
// leaks, for serial and parallel DISC-all and for the dynamic variant.
func TestCancellationPrompt(t *testing.T) {
	db := slowDB(73)
	base := runtime.NumGoroutine()
	for _, tc := range []struct {
		name  string
		miner mining.ContextMiner
	}{
		{"serial", &Miner{Opts: Options{Levels: 2, Workers: 1}}},
		{"parallel", &Miner{Opts: Options{Levels: 2, Workers: 8}}},
		{"dynamic-parallel", &Dynamic{Opts: Options{Gamma: 0.5, Workers: 8}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			var once sync.Once
			// Cancel deterministically mid-run: the first progress event
			// (the first-level partition schedule, emitted after the
			// level-0 scan) pulls the trigger, so the bulk of the
			// partition work is still ahead when the context dies.
			trigger := func(mining.ProgressEvent) { once.Do(cancel) }
			switch m := tc.miner.(type) {
			case *Miner:
				m.Opts.Progress = trigger
			case *Dynamic:
				m.Opts.Progress = trigger
			}
			defer cancel()
			type outcome struct {
				res *mining.Result
				err error
			}
			ch := make(chan outcome, 1)
			go func() {
				res, err := tc.miner.MineContext(ctx, db, 2)
				ch <- outcome{res, err}
			}()
			select {
			case o := <-ch:
				if o.err != context.Canceled {
					t.Fatalf("MineContext = (%v, %v), want context.Canceled", o.res, o.err)
				}
			case <-time.After(60 * time.Second):
				t.Fatal("MineContext did not return within 60s of cancellation")
			}
		})
	}
	waitGoroutinesSettle(t, base)
}

// TestDeadlineExceeded: an already-expired context never starts mining.
func TestDeadlineExceeded(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	time.Sleep(time.Millisecond)
	res, err := New().MineContext(ctx, testutil.Table1(), 2)
	if err != context.DeadlineExceeded || res != nil {
		t.Fatalf("MineContext = (%v, %v), want (nil, DeadlineExceeded)", res, err)
	}
}

func waitGoroutinesSettle(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base+2 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Errorf("goroutines did not settle: %d now vs %d at start", runtime.NumGoroutine(), base)
}

// TestProgressEvents: the progress hook reports the first-level partition
// schedule and one completion per partition, at any worker count.
func TestProgressEvents(t *testing.T) {
	db := testutil.Table6()
	for _, workers := range []int{1, 8} {
		var mu sync.Mutex
		var events []mining.ProgressEvent
		m := &Miner{Opts: Options{Levels: 2, Workers: workers, Progress: func(ev mining.ProgressEvent) {
			mu.Lock()
			events = append(events, ev)
			mu.Unlock()
		}}}
		if _, err := m.Mine(db, 3); err != nil {
			t.Fatal(err)
		}
		// Table 6 at δ=3 has 7 frequent 1-sequences → 7 first-level
		// partitions (see TestPartitionAssignmentExample31).
		const want = 7
		if len(events) != want+1 {
			t.Fatalf("workers=%d: %d events, want %d", workers, len(events), want+1)
		}
		first, last := events[0], events[len(events)-1]
		if first.Stage != mining.StagePartitions || first.Done != 0 || first.Total != want {
			t.Errorf("workers=%d: first event %+v", workers, first)
		}
		if last.Done != want || last.Total != want {
			t.Errorf("workers=%d: last event %+v", workers, last)
		}
		if first.Workers != workers {
			t.Errorf("workers=%d: event reports %d workers", workers, first.Workers)
		}
		seen := map[int]bool{}
		for _, ev := range events[1:] {
			if ev.Done < 1 || ev.Done > want || seen[ev.Done] {
				t.Errorf("workers=%d: bad completion sequence %+v", workers, events)
				break
			}
			seen[ev.Done] = true
		}
	}
}

// TestEagerBucketsMatchLazySplit pins the closure property the scheduler
// relies on: eager bucket i holds exactly the members containing list[i],
// in member order, which is what the lazy reassignment walk eventually
// delivers. It covers the level-0 split and a level-1 split over reduced
// members, both inline (small partitions, no scheduler) and chunked
// across a scheduler (at least 256 members).
func TestEagerBucketsMatchLazySplit(t *testing.T) {
	r := rand.New(rand.NewSource(74))
	check := func(label string, members []*member, list []seq.Pattern, buckets [][]*member) {
		t.Helper()
		for b, key := range list {
			var want []*member
			for _, mb := range members {
				if mb.cs.Contains(key) {
					want = append(want, mb)
				}
			}
			if len(want) != len(buckets[b]) {
				t.Fatalf("%s: bucket %s has %d members, want %d", label, key, len(buckets[b]), len(want))
			}
			for j := range want {
				if want[j] != buckets[b][j] {
					t.Fatalf("%s: bucket %s order differs at %d", label, key, j)
				}
			}
		}
	}
	for i := 0; i < 24; i++ {
		db := testutil.RandomDB(r, 12+r.Intn(10), 6, 4, 3)
		minSup := 1 + r.Intn(3)
		var sched *scheduler
		if i%4 == 3 {
			// Chunked: enough members for several chunks at level 0 and
			// at level 1 after reduction.
			db = testutil.RandomDB(r, 1400, 8, 5, 3)
			minSup = 70
			sched = newScheduler(4)
		}
		e := &engine{opts: DefaultOptions(), minSup: minSup, res: mining.NewResult(), maxItem: db.MaxItem(), sched: sched}
		var members []*member
		for _, cs := range db {
			members = append(members, &member{cs: cs})
		}
		list, _ := e.frequentExtensions(seq.Pattern{}, members, 0)
		buckets, err := e.eagerBuckets(seq.Pattern{}, members, list, 0)
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("db %d level 0", i), members, list, buckets)
		// Level 1, as processPartition runs it: the frequent extensions
		// of the key over its bucket, then the split over the reduced
		// members.
		for b, key := range list {
			list1, _ := e.frequentExtensions(key, buckets[b], 1)
			reduced, err := e.reduceMembers(key.LastItem(), buckets[b], list1)
			if err != nil {
				t.Fatal(err)
			}
			buckets1, err := e.eagerBuckets(key, reduced, list1, 1)
			if err != nil {
				t.Fatal(err)
			}
			check(fmt.Sprintf("db %d level 1 key %s", i, key), reduced, list1, buckets1)
		}
	}
}
