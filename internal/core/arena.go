// Round arenas of the DISC-all engine. Every per-round and per-partition
// scratch structure — counting arrays, split trees, the k-sorted database
// tree, extension index tables, member buffers, the reduction's staging —
// lives in one scratch bundle owned by an engine. A serial run keeps one
// bundle for its whole lifetime; a parallel run draws bundles from a
// sync.Pool shared by the engine tree, so live scratch memory stays
// proportional to workers × depth while steady-state rounds allocate
// nothing: trees reset by slab rewind, counting arrays by epoch stamping,
// index tables by memclr, item buffers by re-slicing to length zero.
//
// Aliasing rules (all proven by the -race hammer in arena_test.go):
//
//   - A bundle belongs to exactly one engine at a time; engines of a
//     parallel run never share one (children draw their own).
//   - Split trees, index tables and partition member buffers are per
//     recursion level: the split at level L holds its tree, table and
//     the member slice of the partition it is processing across the
//     deeper recursion, which only touches level L+1 structures. A
//     scheduled partition of a level-L split builds its members in its
//     own engine's level-L buffer, which that engine never splits at.
//     reduceMembers gets a dedicated table because it runs at level 1
//     while the level-0 split's table is live and before the level-1
//     split fills its own.
//   - One DISC tree suffices per bundle: discLoop is a leaf of the
//     partition recursion (discover never re-enters processPartition).
//   - eagerBuckets chunk goroutines read the submitting engine's index
//     table concurrently but strictly read-only, bounded by the wg.Wait
//     in the same call.
package core

import (
	"sync"

	"github.com/disc-mining/disc/internal/avl"
	"github.com/disc-mining/disc/internal/counting"
	"github.com/disc-mining/disc/internal/seq"
)

// indexTable locates the frequent extensions of one prefix key in their
// ascending list, per item: i[x] for the i-form (x joins key's last
// itemset), s[x] for the s-form, each holding the pair's position in the
// list plus one, or 0 when the pair is not frequent. minFreqExtension and
// reduceMembers read the entries as flags, eagerBuckets as bucket indices.
type indexTable struct {
	i, s []int32
}

// fill clears the table, growing it to maxItem on first use, and indexes
// list: the ascending frequent extensions of a key whose last itemset has
// transaction number n (0 for the empty key).
func (t *indexTable) fill(maxItem seq.Item, n int32, list []seq.Pattern) indexTable {
	if len(t.i) < int(maxItem)+1 {
		t.i = make([]int32, maxItem+1)
		t.s = make([]int32, maxItem+1)
	} else {
		clear(t.i)
		clear(t.s)
	}
	for k, p := range list {
		if p.LastTNo() == n {
			t.i[p.LastItem()] = int32(k + 1)
		} else {
			t.s[p.LastItem()] = int32(k + 1)
		}
	}
	return *t
}

// scratch is one engine's arena bundle. All fields are lazily grown and
// retained across partitions and rounds; nothing in it escapes into the
// mined result.
type scratch struct {
	maxItem seq.Item
	avlRec  *avl.Recorder
	cntRec  *counting.Recorder

	arrays     []*counting.Array                 // per-depth counting arrays
	splitTrees []*avl.Tree[seq.Pattern, filing]  // per-level split trees
	bucketBufs [][]member                        // per-level members of the partition a split is running
	disc       *avl.Tree[seq.Pattern, discEntry] // the k-sorted database tree
	tables     []indexTable                      // per-level extension index tables
	redTable   indexTable                        // reduceMembers' dedicated table
	seen       []bool                            // level-0 DistinctItems bitmap
	itemBuf    []seq.Item                        // DistinctItems output buffer
	fi, fs     []seq.Item                        // FrequentI/FrequentS output buffers
	membersBuf []member                          // discLoop's mutable member copy
	pack       seq.Packer                        // reduceMembers' staging of reduced sequences
	reducedAt  []int                             // reduceMembers' matching points of the staged sequences
}

func newScratch(maxItem seq.Item, avlRec *avl.Recorder, cntRec *counting.Recorder) *scratch {
	return &scratch{maxItem: maxItem, avlRec: avlRec, cntRec: cntRec}
}

// array returns the reset counting array for one recursion depth.
func (s *scratch) array(depth int) *counting.Array {
	for len(s.arrays) <= depth {
		s.arrays = append(s.arrays, nil)
	}
	a := s.arrays[depth]
	if a == nil {
		a = counting.New(s.maxItem).Observe(s.cntRec)
		s.arrays[depth] = a
	}
	a.Reset()
	return a
}

// splitTree returns the reset split tree for one recursion level.
func (s *scratch) splitTree(level int) *avl.Tree[seq.Pattern, filing] {
	for len(s.splitTrees) <= level {
		s.splitTrees = append(s.splitTrees, nil)
	}
	t := s.splitTrees[level]
	if t == nil {
		t = avl.New[seq.Pattern, filing](seq.Compare).Observe(s.avlRec)
		s.splitTrees[level] = t
	}
	t.Reset()
	return t
}

// filedMembers turns a bucket of the level's split over members into the
// members of its partition, each at its own matching point of the
// partition key, in the level's member buffer, so that no partition
// allocates its member slice. The buffer's previous partition is cleared
// first. A scheduled partition's own engine calls it, so the slice lives
// in that engine's bundle while the partition runs.
func (s *scratch) filedMembers(level int, members []member, bucket []filing) []member {
	for len(s.bucketBufs) <= level {
		s.bucketBufs = append(s.bucketBufs, nil)
	}
	buf := s.bucketBufs[level]
	clear(buf)
	buf = buf[:0]
	for _, f := range bucket {
		buf = append(buf, member{cs: members[f.idx].cs, at: int(f.at)})
	}
	s.bucketBufs[level] = buf
	return buf
}

// discTree returns the reset k-sorted database tree.
func (s *scratch) discTree() *avl.Tree[seq.Pattern, discEntry] {
	if s.disc == nil {
		s.disc = avl.New[seq.Pattern, discEntry](seq.Compare).Observe(s.avlRec)
	}
	s.disc.Reset()
	return s.disc
}

// levelTable indexes the frequent extension list of a key at one
// recursion level (n is the key's LastTNoOrZero) in that level's table.
// The split at this level holds the table across its deeper recursion,
// which only touches higher-level tables.
func (s *scratch) levelTable(level int, n int32, list []seq.Pattern) indexTable {
	for len(s.tables) <= level {
		s.tables = append(s.tables, indexTable{})
	}
	return s.tables[level].fill(s.maxItem, n, list)
}

// reduceTable indexes the frequent 2-sequences of a first-level partition
// in the table reserved for reduceMembers.
func (s *scratch) reduceTable(list2 []seq.Pattern) indexTable {
	return s.redTable.fill(s.maxItem, 1, list2)
}

// seenBitmap returns the cleared level-0 distinct-items bitmap.
func (s *scratch) seenBitmap() []bool {
	if len(s.seen) < int(s.maxItem)+1 {
		s.seen = make([]bool, s.maxItem+1)
	}
	// DistinctItems leaves the bitmap clean (it unsets what it set), so no
	// clear here; newly grown bitmaps start zeroed.
	return s.seen
}

// release drops round-local references (pattern keys and customer
// sequences in trees, members in buffers) while keeping every slab and
// capacity, so a pooled bundle neither leaks the previous partition's
// data nor re-allocates. The member buffers are cleared up to their
// length only: whoever refills one clears what it held first (a stale
// member past the length would keep its sequence reachable, and a reduced
// sequence shares its arrays with its whole partition).
func (s *scratch) release() {
	for _, t := range s.splitTrees {
		if t != nil {
			t.Reset()
		}
	}
	if s.disc != nil {
		s.disc.Reset()
	}
	clear(s.membersBuf)
	s.membersBuf = s.membersBuf[:0]
	for i, buf := range s.bucketBufs {
		clear(buf)
		s.bucketBufs[i] = buf[:0]
	}
}

// MemBytes reports the bundle's total slab footprint, exact for the trees
// and counting arrays. The budget accounting reads it at partition
// boundaries.
func (s *scratch) MemBytes() int64 {
	var total int64
	for _, a := range s.arrays {
		if a != nil {
			total += a.MemBytes()
		}
	}
	for _, t := range s.splitTrees {
		if t != nil {
			total += t.MemBytes()
		}
	}
	if s.disc != nil {
		total += s.disc.MemBytes()
	}
	total += int64(len(s.seen))
	for _, t := range s.tables {
		total += int64(cap(t.i)+cap(t.s)) * 4
	}
	total += int64(cap(s.redTable.i)+cap(s.redTable.s)) * 4
	total += int64(cap(s.itemBuf)+cap(s.fi)+cap(s.fs)) * 4
	total += int64(cap(s.membersBuf)) * 16
	total += int64(cap(s.reducedAt)) * 8
	for _, buf := range s.bucketBufs {
		total += int64(cap(buf)) * 16
	}
	total += s.pack.MemBytes()
	return total
}

// scratchPool shares arena bundles across the partition workers of one
// run. All bundles of a pool share the run-wide recorders, so a recycled
// bundle is indistinguishable from a fresh one apart from its warm slabs.
type scratchPool struct {
	maxItem seq.Item
	avlRec  *avl.Recorder
	cntRec  *counting.Recorder
	p       sync.Pool
}

// get draws a bundle; reused reports whether it came back warm from a
// finished worker (an arena reuse, counted in Stats).
func (sp *scratchPool) get() (s *scratch, reused bool) {
	if s, ok := sp.p.Get().(*scratch); ok {
		return s, true
	}
	return newScratch(sp.maxItem, sp.avlRec, sp.cntRec), false
}

func (sp *scratchPool) put(s *scratch) {
	s.release()
	sp.p.Put(s)
}

// scratch returns the engine's arena bundle, drawing one lazily from the
// run's pool (parallel) or building a private one (serial).
func (e *engine) scratch() *scratch {
	if e.scr == nil {
		e.stats.ArenaAcquires++
		if e.pool != nil {
			var reused bool
			e.scr, reused = e.pool.get()
			if reused {
				e.stats.ArenaReuses++
			}
		} else {
			e.scr = newScratch(e.maxItem, e.avlRec, e.cntRec)
		}
	}
	return e.scr
}

// releaseScratch returns the engine's bundle to the run's pool (or to the
// garbage collector for a serial run). Called when a partition worker
// finishes and at the end of the run.
func (e *engine) releaseScratch() {
	if e.scr == nil {
		return
	}
	if e.pool != nil {
		e.pool.put(e.scr)
	}
	e.scr = nil
}

// scratchBytes is the nil-safe footprint read for the budget sampler.
func (e *engine) scratchBytes() int64 {
	if e.scr == nil {
		return 0
	}
	return e.scr.MemBytes()
}
