package core

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/disc-mining/disc/internal/checkpoint"
	"github.com/disc-mining/disc/internal/counting"
	"github.com/disc-mining/disc/internal/mining"
	"github.com/disc-mining/disc/internal/prefixspan"
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
// must carry the same counters and the same per-level NRR means, bit for
// bit, as the serial run.
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
	if !sameBits(s.NRRByLevel, p.NRRByLevel) {
		t.Errorf("NRRByLevel %v vs %v", s.NRRByLevel, p.NRRByLevel)
	}
}

// sameBits reports whether a and b hold the same floats, bit for bit.
func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// TestWorkerCountIndependence: which partitions run on child engines
// depends on the level alone, so a run's statistics and its checkpoint
// are the same at every worker count — NRR means bit for bit, and the
// checkpoint byte for byte once its partitions (recorded in completion
// order) are sorted by key. Levels 3 and Dynamic split below the fan-out,
// where a worker-count-dependent split would merge the NRR means in a
// different association. ArenaReuses is left out: it counts the pool's
// warm hits, which depend on scheduling and on the garbage collector.
func TestWorkerCountIndependence(t *testing.T) {
	db := benchDB()
	minSups := []int{4, 8}
	if testing.Short() {
		minSups = minSups[1:] // the -race pass: δ=4 mines four times longer
	}
	for _, minSup := range minSups {
		for _, cfg := range []struct {
			name string
			mk   func(Options) mining.ContextMiner
			opts Options
		}{
			{"levels2", func(o Options) mining.ContextMiner { return &Miner{Opts: o} }, Options{BiLevel: true, Levels: 2}},
			{"levels3", func(o Options) mining.ContextMiner { return &Miner{Opts: o} }, Options{BiLevel: true, Levels: 3}},
			{"dynamic", func(o Options) mining.ContextMiner { return &Dynamic{Opts: o} }, Options{BiLevel: true, Gamma: 0.5}},
		} {
			var refStats Stats
			var refCkpt []byte
			for _, workers := range []int{1, 2, 4} {
				opts := cfg.opts
				opts.Workers = workers
				opts.Checkpoint = NewCheckpointer()
				m := cfg.mk(opts)
				if _, err := m.MineContext(context.Background(), db, minSup); err != nil {
					t.Fatal(err)
				}
				var st Stats
				switch m := m.(type) {
				case *Miner:
					st = m.LastStats()
				case *Dynamic:
					st = m.LastStats()
				}
				st.ArenaReuses = 0
				f := opts.Checkpoint.File(cfg.name, minSup, 0)
				slices.SortFunc(f.Partitions, func(a, b checkpoint.Partition) int { return seq.Compare(a.Key, b.Key) })
				var buf bytes.Buffer
				if _, err := f.Write(&buf); err != nil {
					t.Fatal(err)
				}
				if workers == 1 {
					refStats, refCkpt = st, buf.Bytes()
					continue
				}
				if !sameBits(st.NRRByLevel, refStats.NRRByLevel) {
					t.Errorf("%s δ=%d workers=%d: NRRByLevel %v, workers=1 %v", cfg.name, minSup, workers, st.NRRByLevel, refStats.NRRByLevel)
				}
				if !reflect.DeepEqual(st, refStats) {
					t.Errorf("%s δ=%d workers=%d: stats %+v, workers=1 %+v", cfg.name, minSup, workers, st, refStats)
				}
				if !bytes.Equal(buf.Bytes(), refCkpt) {
					t.Errorf("%s δ=%d workers=%d: checkpoint differs from workers=1's", cfg.name, minSup, workers)
				}
			}
		}
	}
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

// TestSplitBucketsMatchContainment pins the closure property the split
// relies on: eager bucket i holds exactly the members containing list[i],
// in member order, and each entry carries list[i]'s leftmost matching
// point in the member's sequence, where the partition's scans start. It
// covers fixed inputs — an i-form found only at a later match of the key,
// and a deeper key — then the level-0 split and a level-1 split over
// reduced members of generated databases, both inline (small partitions,
// one worker) and chunked across four workers (at least 256 members).
func TestSplitBucketsMatchContainment(t *testing.T) {
	r := rand.New(rand.NewSource(74))
	check := func(label string, members []member, list []seq.Pattern, buckets [][]filing) {
		t.Helper()
		for b, key := range list {
			var want []filing
			for i, mb := range members {
				if _, at, ok := mb.cs.LeftmostMatch(key); ok {
					want = append(want, filing{idx: int32(i), at: int32(at)})
				}
			}
			if len(want) != len(buckets[b]) {
				t.Fatalf("%s: bucket %s has %d members, want %d", label, key, len(buckets[b]), len(want))
			}
			for j := range want {
				if want[j].idx != buckets[b][j].idx {
					t.Fatalf("%s: bucket %s order differs at %d", label, key, j)
				}
				if want[j].at != buckets[b][j].at {
					t.Fatalf("%s: bucket %s member %d filed at %d, leftmost matching point %d",
						label, key, j, buckets[b][j].at, want[j].at)
				}
			}
		}
	}
	for _, c := range []struct {
		name, key string
		list, db  []string // the key's frequent extensions, ascending; the customers
	}{
		// <(a, c)> first matches in the third transaction, past <(a)>'s
		// leftmost match in the first.
		{"i-form at a later match", "(a)", []string{"(a)(b)", "(a, c)", "(a)(c)"},
			[]string{"(a)(b)(a, c)", "(a, c)(b)(a, c)", "(b)(a)(c)"}},
		{"deeper key", "(a)(b)", []string{"(a)(b, c)", "(a)(b)(c)"},
			[]string{"(a)(b)(a, b)(c)(b, c)", "(a)(b, c)", "(b)(a)(b)"}},
	} {
		key := seq.MustParsePattern(c.key)
		var list []seq.Pattern
		for _, p := range c.list {
			list = append(list, seq.MustParsePattern(p))
		}
		var db []*seq.CustomerSeq
		for i, body := range c.db {
			db = append(db, seq.MustParseCustomerSeq(i+1, body))
		}
		members := partitionMembers(key, db)
		sups := make([]int, len(list))
		for b, p := range list {
			for _, mb := range members {
				if _, _, ok := mb.cs.LeftmostMatch(p); ok {
					sups[b]++
				}
			}
		}
		e := &engine{opts: DefaultOptions(), minSup: 1, maxItem: 8}
		e.initExec(1)
		buckets, err := e.eagerBuckets(key, members, list, sups, nil)
		if err != nil {
			t.Fatal(err)
		}
		check(c.name, members, list, buckets)
	}
	for i := 0; i < 24; i++ {
		db := testutil.RandomDB(r, 12+r.Intn(10), 6, 4, 3)
		minSup := 1 + r.Intn(3)
		workers := 1
		if i%4 == 3 {
			// Chunked: enough members for several chunks at level 0 and
			// at level 1 after reduction.
			db = testutil.RandomDB(r, 1400, 8, 5, 3)
			minSup = 70
			workers = 4
		}
		e := &engine{opts: DefaultOptions(), minSup: minSup, maxItem: db.MaxItem()}
		e.initExec(workers)
		members := partitionMembers(seq.Pattern{}, db)
		list, sups := e.frequentExtensions(seq.Pattern{}, members, 0)
		buckets, err := e.eagerBuckets(seq.Pattern{}, members, list, sups, nil)
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("db %d level 0", i), members, list, buckets)
		// Level 1, as processPartition runs it: the frequent extensions
		// of the key over its bucket, then the split over the reduced
		// members.
		for b, key := range list {
			bucket := e.scratch().filedMembers(0, members, buckets[b])
			list1, sups1 := e.frequentExtensions(key, bucket, 1)
			reduced, err := e.reduceMembers(key.LastItem(), bucket, list1)
			if err != nil {
				t.Fatal(err)
			}
			buckets1, err := e.eagerBuckets(key, reduced, list1, sups1, nil)
			if err != nil {
				t.Fatal(err)
			}
			check(fmt.Sprintf("db %d level 1 key %s", i, key), reduced, list1, buckets1)
		}
	}
}

// TestEagerBucketsKeepSet pins the level-0 split of a run that mines
// only some first-level partitions (a shard run, a resumed run, the
// cluster's assembly): given a keep set, each kept bucket equals that
// bucket of the full closure, filing for filing, and each other bucket is
// empty. Keep sets of every size are drawn, none and all included, both
// inline and chunked across four workers (at least 256 members).
func TestEagerBucketsKeepSet(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	for i := 0; i < 24; i++ {
		db := testutil.RandomDB(r, 12+r.Intn(10), 6, 4, 3)
		minSup := 1 + r.Intn(3)
		workers := 1
		if i%4 == 3 {
			db = testutil.RandomDB(r, 1400, 8, 5, 3)
			minSup = 70
			workers = 4
		}
		e := &engine{opts: DefaultOptions(), minSup: minSup, maxItem: db.MaxItem()}
		e.initExec(workers)
		members := partitionMembers(seq.Pattern{}, db)
		list, sups := e.frequentExtensions(seq.Pattern{}, members, 0)
		full, err := e.eagerBuckets(seq.Pattern{}, members, list, sups, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, frac := range []float64{0, 0.25, 0.5, 1} {
			keep := make([]bool, len(list))
			for b := range keep {
				keep[b] = r.Float64() < frac
			}
			buckets, err := e.eagerBuckets(seq.Pattern{}, members, list, sups, keep)
			if err != nil {
				t.Fatal(err)
			}
			for b, key := range list {
				want := full[b]
				if !keep[b] {
					want = nil
				}
				if !slices.Equal(buckets[b], want) {
					t.Fatalf("db %d keep %.2f: bucket %s (kept %t) has %d filings, want %d of the full closure's",
						i, frac, key, keep[b], len(buckets[b]), len(want))
				}
			}
		}
	}
}

// TestLevelZeroCount: the level-0 count, which touches each item of a
// customer where the scan first meets it, finds the frequent 1-sequences
// and supports a count over seq.DistinctItems finds, and its counting
// array records the same dedup hits. Customers repeat items across
// transactions (a small alphabet), and some databases hold one
// *seq.CustomerSeq several times, each copy a customer of its own.
func TestLevelZeroCount(t *testing.T) {
	r := rand.New(rand.NewSource(78))
	for i := 0; i < 24; i++ {
		db := testutil.RandomDB(r, 12+r.Intn(40), 5+r.Intn(6), 6, 3)
		if i%2 == 1 {
			for j := 0; j < 5; j++ {
				db = append(db, db[r.Intn(len(db))])
			}
		}
		minSup := 1 + r.Intn(4)
		rec := &counting.Recorder{}
		e := &engine{opts: DefaultOptions(), minSup: minSup, maxItem: db.MaxItem(), cntRec: rec}
		e.initExec(1)
		list, sups := e.frequentExtensions(seq.Pattern{}, partitionMembers(seq.Pattern{}, db), 0)

		refRec := &counting.Recorder{}
		arr := counting.New(db.MaxItem()).Observe(refRec)
		seen := make([]bool, db.MaxItem()+1)
		var buf []seq.Item
		for ci, cs := range db {
			buf = cs.DistinctItems(buf[:0], seen)
			for _, x := range buf {
				arr.TouchS(x, int32(ci))
			}
		}
		want := arr.FrequentS(minSup, nil)
		if len(list) != len(want) {
			t.Fatalf("db %d δ=%d: %d frequent 1-sequences, want %d", i, minSup, len(list), len(want))
		}
		for k, x := range want {
			if p := seq.NewPattern(seq.Itemset{x}); seq.Compare(list[k], p) != 0 || sups[k] != arr.SupS(x) {
				t.Fatalf("db %d δ=%d: entry %d is %s=%d, want %s=%d", i, minSup, k, list[k], sups[k], p, arr.SupS(x))
			}
		}
		if got, want := rec.DedupHits.Load(), refRec.DedupHits.Load(); got != want {
			t.Fatalf("db %d: level-0 count recorded %d dedup hits, want %d", i, got, want)
		}
		if slices.Contains(e.scratch().seen, true) {
			t.Fatalf("db %d: the level-0 count left its bitmap dirty", i)
		}
	}
}

// TestRepeatedCustomerSeq is the regression test for filing members by
// their scan index: a database may hold one *seq.CustomerSeq several
// times (gen.Mutate appends a copy of a customer's pointer), and every
// copy is a customer of its own. Filing that skipped a repeat of the
// sequence just filed would undercount every pattern the sequence holds.
// Repeats sit next to each other and far apart, and the database is large
// enough for eagerBuckets to chunk its level-0 closure across workers.
func TestRepeatedCustomerSeq(t *testing.T) {
	r := rand.New(rand.NewSource(75))
	base := testutil.SkewedRandomDB(r, 400, 10, 6, 4)
	var db mining.Database
	for i, cs := range base {
		db = append(db, cs)
		if i%3 == 0 {
			db = append(db, cs)
		}
	}
	db = append(db, base[0], base[7], base[7])
	const minSup = 30
	ref, err := prefixspan.Pseudo{}.Mine(db, minSup)
	if err != nil {
		t.Fatal(err)
	}
	testutil.CheckAgainst(t, ref, []mining.Miner{
		&Miner{Opts: Options{BiLevel: true, Levels: 2, Workers: 4}},
		&Miner{Opts: Options{BiLevel: true, Levels: 3, Workers: 1}},
		&Dynamic{Opts: Options{BiLevel: true, Gamma: 0.5, Workers: 4}},
	}, db, minSup)
}
