package core

import (
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"github.com/disc-mining/disc/internal/mining"
	"github.com/disc-mining/disc/internal/seq"
	"github.com/disc-mining/disc/internal/testutil"
)

// TestArenaRaceHammer is the -race proof of the aliasing rules stated in
// arena.go: several complete parallel runs mine the same database
// concurrently, each drawing arena bundles from its own run pool, and
// every run must reproduce the serial reference result. Any sharing of
// scratch state across engines, any flag-table write racing an
// eagerBuckets reader, or any bundle recycled while still referenced
// shows up as a race report or a diverging result.
func TestArenaRaceHammer(t *testing.T) {
	ncust, runs := 400, 4
	if testing.Short() {
		// The -short race pass still hammers the pool, on a smaller
		// database; the full-size hammer runs in the plain test pass and
		// the dedicated difftest/faultinject race jobs.
		ncust, runs = 150, 2
	}
	db := testutil.SkewedRandomDB(rand.New(rand.NewSource(77)), ncust, 14, 8, 5)
	const minSup = 4
	ref, err := (&Miner{Opts: Options{BiLevel: true, Levels: 2, Workers: 1}}).Mine(db, minSup)
	if err != nil {
		t.Fatal(err)
	}
	want := ref.Sorted()
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for run := 0; run < runs; run++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m := &Miner{Opts: Options{BiLevel: true, Levels: 2, Workers: workers}}
			res, err := m.Mine(db, minSup)
			if err != nil {
				errs <- err
				return
			}
			got := res.Sorted()
			if len(got) != len(want) {
				errs <- errors.New("concurrent run diverged from serial reference")
				return
			}
			for i := range got {
				if !got[i].Pattern.Equal(want[i].Pattern) || got[i].Support != want[i].Support {
					errs <- errors.New("concurrent run diverged from serial reference")
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestArenaStatsCounters pins the acquire/reuse accounting: a serial run
// owns exactly one private bundle, and a parallel run over a database
// with more first-level partitions than workers must recycle bundles
// through the pool (reuses > 0, and never more reuses than draws).
func TestArenaStatsCounters(t *testing.T) {
	ncust := 400
	if testing.Short() {
		ncust = 200
	}
	db := testutil.SkewedRandomDB(rand.New(rand.NewSource(77)), ncust, 14, 8, 5)
	serial := &Miner{Opts: Options{BiLevel: true, Levels: 2, Workers: 1}}
	if _, err := serial.Mine(db, 4); err != nil {
		t.Fatal(err)
	}
	if s := serial.LastStats(); s.ArenaAcquires != 1 || s.ArenaReuses != 0 {
		t.Fatalf("serial run: acquires=%d reuses=%d, want 1/0", s.ArenaAcquires, s.ArenaReuses)
	}
	par := &Miner{Opts: Options{BiLevel: true, Levels: 2, Workers: 4}}
	if _, err := par.Mine(db, 4); err != nil {
		t.Fatal(err)
	}
	s := par.LastStats()
	if s.ArenaAcquires == 0 {
		t.Fatal("parallel run acquired no arena bundles")
	}
	if s.ArenaReuses == 0 {
		t.Fatalf("parallel run never recycled a bundle through the pool (acquires=%d)", s.ArenaAcquires)
	}
	if s.ArenaReuses > s.ArenaAcquires {
		t.Fatalf("reuses %d exceed acquires %d", s.ArenaReuses, s.ArenaAcquires)
	}
}

// TestScratchSteadyStateAllocs is the regression guard for per-round
// slice churn: once a bundle has served one partition of a given shape,
// serving the same shape again — counting array, split tree and its
// popped-bucket members, DISC tree, index tables, the reduction's staging,
// distinct-items scan, frequent-extension collection — must not touch the
// heap at all.
func TestScratchSteadyStateAllocs(t *testing.T) {
	s := newScratch(40, nil, nil)
	pats := make([]seq.Pattern, 16)
	for i := range pats {
		pats[i] = seq.NewPattern(seq.NewItemset(seq.Item(i+1)), seq.NewItemset(seq.Item(i/2+1)))
	}
	members := make([]member, len(pats))
	round := func() {
		arr := s.array(1)
		for i := 0; i < 64; i++ {
			arr.TouchI(seq.Item(i%37+1), int32(i%9))
			arr.TouchS(seq.Item(i%23+1), int32(i%9))
		}
		s.fi = arr.FrequentI(2, s.fi[:0])
		s.fs = arr.FrequentS(2, s.fs[:0])
		_ = s.levelTable(1, 1, pats)
		_ = s.reduceTable(pats)
		_ = s.seenBitmap()
		tree := s.splitTree(1)
		for i, p := range pats {
			tree.Insert(p, filing{idx: int32(i)})
			tree.Insert(pats[0], filing{idx: int32(i)})
		}
		_, bucket, _ := tree.PopMin()
		_ = s.filedMembers(1, members, bucket)
		s.pack.Reset()
		for i, p := range pats {
			s.pack.Begin(i)
			s.pack.AddTransaction(p.ItemsetAt(1))
			s.pack.EndTransaction()
			s.pack.Add(p.LastItem())
			s.pack.Commit()
		}
		disc := s.discTree()
		for _, p := range pats {
			disc.Insert(p, discEntry{})
		}
		for {
			if _, _, ok := disc.PopMin(); !ok {
				break
			}
		}
		s.release()
	}
	round() // cold: slabs grow
	round() // settle capacities (FrequentI buffers, bucket slots)
	if allocs := testing.AllocsPerRun(20, round); allocs != 0 {
		t.Fatalf("steady-state round allocated %.0f times, want 0", allocs)
	}
}

// TestScratchMemBudgetBreach proves the MaxMemBytes wiring to the slab
// accounting: with a budget far below any real arena footprint, the
// exact scratchBytes check in sampleMem must stop the run with a typed
// memory BudgetError — deterministically, not only when the sampled
// global heap happens to cross the limit.
func TestScratchMemBudgetBreach(t *testing.T) {
	db := testutil.SkewedRandomDB(rand.New(rand.NewSource(77)), 150, 14, 8, 5)
	m := &Miner{Opts: Options{BiLevel: true, Levels: 2, MaxMemBytes: 64}}
	_, err := m.Mine(db, 4)
	var be *mining.BudgetError
	if !errors.As(err, &be) || be.Resource != "memory" {
		t.Fatalf("Mine with a 64-byte memory budget returned %v, want a memory BudgetError", err)
	}
	if be.Used <= be.Limit {
		t.Fatalf("budget error reports used %d <= limit %d", be.Used, be.Limit)
	}
}
