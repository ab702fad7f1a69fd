// Round arenas of the DISC-all engine. Every per-round and per-partition
// scratch structure — counting arrays, split trees, the k-sorted database
// tree, extension flag tables, k-minimum buffers — lives in one scratch
// bundle owned by an engine. A serial run keeps one bundle for its whole
// lifetime; a parallel run draws bundles from a sync.Pool shared by the
// engine tree, so live scratch memory stays proportional to workers ×
// depth while steady-state rounds allocate nothing: trees reset by slab
// rewind, counting arrays by epoch stamping, flag tables by memclr, item
// buffers by re-slicing to length zero.
//
// Aliasing rules (all proven by the -race hammer in arena_test.go):
//
//   - A bundle belongs to exactly one engine at a time; engines of a
//     parallel run never share one (children draw their own).
//   - Split trees and flag tables are per recursion level: the split at
//     level L holds its tree and flags across the deeper recursion, which
//     only touches level L+1 structures. reduceMembers gets a dedicated
//     flag pair because it runs at level 1 while the level-0 split's
//     flags are live and before the level-1 split fills its own.
//   - One DISC tree suffices per bundle: discLoop is a leaf of the
//     partition recursion (discover never re-enters processPartition).
//   - eagerBuckets chunk goroutines read the submitting engine's flag
//     tables concurrently but strictly read-only, bounded by the wg.Wait
//     in the same call.
package core

import (
	"sync"

	"github.com/disc-mining/disc/internal/avl"
	"github.com/disc-mining/disc/internal/counting"
	"github.com/disc-mining/disc/internal/seq"
)

// boolTable is a pair of per-item flag tables (i-form / s-form), the
// lookup structure minFreqExtension reads.
type boolTable struct {
	freqI, freqS []bool
}

// scratch is one engine's arena bundle. All fields are lazily grown and
// retained across partitions and rounds; nothing in it escapes into the
// mined result.
type scratch struct {
	maxItem seq.Item
	avlRec  *avl.Recorder
	cntRec  *counting.Recorder

	arrays     []*counting.Array                 // per-depth counting arrays
	splitTrees []*avl.Tree[seq.Pattern, *member] // per-level split trees
	disc       *avl.Tree[seq.Pattern, discEntry] // the k-sorted database tree
	flags      []boolTable                       // per-level extension flags
	redFlags   boolTable                         // reduceMembers' dedicated pair
	seen       []bool                            // level-0 DistinctItems bitmap
	itemBuf    []seq.Item                        // DistinctItems output buffer
	fi, fs     []seq.Item                        // FrequentI/FrequentS output buffers
	membersBuf []*member                         // discLoop's mutable member copy
	sets       []seq.Itemset                     // reduceMembers per-customer itemset headers
	redBuf     []seq.Item                        // reduceMembers flat surviving-item storage
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
func (s *scratch) splitTree(level int) *avl.Tree[seq.Pattern, *member] {
	for len(s.splitTrees) <= level {
		s.splitTrees = append(s.splitTrees, nil)
	}
	t := s.splitTrees[level]
	if t == nil {
		t = avl.New[seq.Pattern, *member](seq.Compare).Observe(s.avlRec)
		s.splitTrees[level] = t
	}
	t.Reset()
	return t
}

// discTree returns the reset k-sorted database tree.
func (s *scratch) discTree() *avl.Tree[seq.Pattern, discEntry] {
	if s.disc == nil {
		s.disc = avl.New[seq.Pattern, discEntry](seq.Compare).Observe(s.avlRec)
	}
	s.disc.Reset()
	return s.disc
}

// levelFlags returns the cleared flag pair for one recursion level.
func (s *scratch) levelFlags(level int) (freqI, freqS []bool) {
	for len(s.flags) <= level {
		s.flags = append(s.flags, boolTable{})
	}
	return s.flags[level].cleared(s.maxItem)
}

// reduceFlags returns the cleared flag pair reserved for reduceMembers.
func (s *scratch) reduceFlags() (freqI, freqS []bool) {
	return s.redFlags.cleared(s.maxItem)
}

func (t *boolTable) cleared(maxItem seq.Item) (freqI, freqS []bool) {
	if len(t.freqI) < int(maxItem)+1 {
		t.freqI = make([]bool, maxItem+1)
		t.freqS = make([]bool, maxItem+1)
	} else {
		clear(t.freqI)
		clear(t.freqS)
	}
	return t.freqI, t.freqS
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

// release drops round-local references (pattern keys in trees, member
// pointers in buffers) while keeping every slab and capacity, so a pooled
// bundle neither leaks the previous partition's data nor re-allocates.
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
	clear(s.sets)
	s.sets = s.sets[:0]
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
	perFlag := int64(len(s.seen))
	for _, f := range s.flags {
		perFlag += int64(cap(f.freqI) + cap(f.freqS))
	}
	perFlag += int64(cap(s.redFlags.freqI) + cap(s.redFlags.freqS))
	total += perFlag
	total += int64(cap(s.itemBuf)+cap(s.fi)+cap(s.fs)+cap(s.redBuf)) * 4
	total += int64(cap(s.membersBuf)) * 8
	total += int64(cap(s.sets)) * 24
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
