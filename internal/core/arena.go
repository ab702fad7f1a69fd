// Round arenas of the DISC-all engine. Every per-round and per-partition
// scratch structure — counting arrays, the k-sorted database tree, the
// extension index table, member buffers, the reduction's staging — lives
// in one scratch bundle owned by an engine. Every engine of a run draws
// its bundle from a sync.Pool shared by the engine tree, so live scratch
// memory stays proportional to workers × depth while steady-state rounds
// allocate nothing: trees reset by slab rewind, counting arrays by epoch
// stamping, the index table by memclr, item buffers by re-slicing to
// length zero.
//
// Aliasing rules (all proven by the -race hammer in arena_test.go):
//
//   - A bundle belongs to exactly one engine at a time; engines of a run
//     never share one (children draw their own).
//   - Partition member buffers are per recursion level: a split at level
//     L builds the members of the partition it is running in its engine's
//     level-L buffer and holds them across the deeper recursion, which
//     only touches level L+1 buffers. A partition a level-L split hands
//     to a child engine builds its members in the child's level-L buffer,
//     which that engine never splits at.
//   - One index table suffices per bundle: eagerBuckets and reduceMembers
//     each fill it and finish reading it before they return, and no
//     split holds it across the recursion.
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
// list plus one, or 0 when the pair is not frequent. reduceMembers reads
// the entries as flags, eagerBuckets as bucket indices.
type indexTable struct {
	i, s []int32
}

// fill clears the table, growing it to maxItem on first use, and indexes
// list: the ascending frequent extensions of a key whose last itemset has
// transaction number n (0 for the empty key). A non-nil keep leaves every
// list[k] with !keep[k] out, so the table reads it as not frequent.
func (t *indexTable) fill(maxItem seq.Item, n int32, list []seq.Pattern, keep []bool) indexTable {
	if len(t.i) < int(maxItem)+1 {
		t.i = make([]int32, maxItem+1)
		t.s = make([]int32, maxItem+1)
	} else {
		clear(t.i)
		clear(t.s)
	}
	for k, p := range list {
		if keep != nil && !keep[k] {
			continue
		}
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
	bucketBufs [][]member                        // per-level members of the partition a split is running
	disc       *avl.Tree[seq.Pattern, discEntry] // the k-sorted database tree
	table      indexTable                        // the extension index table of eagerBuckets and reduceMembers
	seen       []bool                            // level-0 count's items-seen-in-this-customer bitmap
	fi, fs     []seq.Item                        // FrequentI/FrequentS output buffers
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

// filedMembers turns a bucket of the level's split over members into the
// members of its partition, each at its own matching point of the
// partition key, in the level's member buffer, so that no partition
// allocates its member slice. The buffer's previous partition is cleared
// first. The engine that runs the partition calls it — a child engine, or
// below the fan-out the splitting engine itself — so the slice lives in
// that engine's bundle while the partition runs.
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

// seenBitmap returns the cleared bitmap with which the level-0 count
// touches each item once per customer.
func (s *scratch) seenBitmap() []bool {
	if len(s.seen) < int(s.maxItem)+1 {
		s.seen = make([]bool, s.maxItem+1)
	}
	// The count unsets what each customer set, so no clear here; newly
	// grown bitmaps start zeroed.
	return s.seen
}

// release drops round-local references (pattern keys and customer
// sequences in the DISC tree, members in buffers) while keeping every
// slab and capacity, so a pooled bundle neither leaks the previous
// partition's data nor re-allocates. The member buffers are cleared up
// to their length only: whoever refills one clears what it held first (a
// stale member past the length would keep its sequence reachable, and a
// reduced sequence shares its arrays with its whole partition).
func (s *scratch) release() {
	if s.disc != nil {
		s.disc.Reset()
	}
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
	if s.disc != nil {
		total += s.disc.MemBytes()
	}
	total += int64(len(s.seen))
	total += int64(cap(s.table.i)+cap(s.table.s)) * 4
	total += int64(cap(s.fi)+cap(s.fs)) * 4
	total += int64(cap(s.reducedAt)) * 8
	for _, buf := range s.bucketBufs {
		total += int64(cap(buf)) * 16
	}
	total += s.pack.MemBytes()
	return total
}

// scratchPool shares arena bundles across the engines of one run. All
// bundles of a pool share the run-wide recorders, so a recycled bundle is
// indistinguishable from a fresh one apart from its warm slabs.
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
// run's pool.
func (e *engine) scratch() *scratch {
	if e.scr == nil {
		var reused bool
		e.scr, reused = e.pool.get()
		e.stats.ArenaAcquires++
		if reused {
			e.stats.ArenaReuses++
		}
	}
	return e.scr
}

// releaseScratch returns the engine's bundle to the run's pool. Called
// when a child engine's partition finishes and at the end of the run.
func (e *engine) releaseScratch() {
	if e.scr != nil {
		e.pool.put(e.scr)
		e.scr = nil
	}
}

// scratchBytes is the nil-safe footprint read for the budget sampler.
func (e *engine) scratchBytes() int64 {
	if e.scr == nil {
		return 0
	}
	return e.scr.MemBytes()
}
