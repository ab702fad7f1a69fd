// Partition scheduling. DISC-all's divide-and-conquer structure (Figure
// 2) produces independent partitions — processPartition touches only its
// own members, counting arrays and AVL scratch state — so the first two
// partitioning levels are fanned out onto a bounded worker pool.
//
// Figure 2 assigns customers to partitions lazily: each customer sits in
// the bucket of its minimal contained frequent extension and is
// reassigned to the next one when that bucket is popped (Steps 2.2 and
// 2.1.3.3). Walked to completion, the reassignment chain visits exactly
// the frequent extensions the customer contains, so the bucket a
// partition eventually sees is precisely "the members containing its
// key". Every split computes that closure up front (eagerBuckets), which
// makes every partition's input independent of the processing order and
// therefore schedulable. Per-partition results and statistics merge back
// in ascending key order, and the partitions a run hands to child engines
// do not depend on its worker count, so the result and the statistics
// are identical at any worker count.
package core

import (
	"slices"
	"sync"

	"github.com/disc-mining/disc/internal/checkpoint"
	"github.com/disc-mining/disc/internal/kmin"
	"github.com/disc-mining/disc/internal/mining"
	"github.com/disc-mining/disc/internal/obs"
	"github.com/disc-mining/disc/internal/seq"
)

// parallelSplitDepth is the number of partitioning levels fanned out onto
// the worker pool: splits at levels 0 and 1 hand their level-1 and
// level-2 partitions to the scheduler. Deeper splits (Levels > 2 or
// Dynamic configurations) run their partitions inline within their
// worker — by then the fan-out above them already saturates the pool.
const parallelSplitDepth = 2

// cancelCheckMask throttles cooperative cancellation checks inside the
// DISC round loop to one in 64, keeping ctx.Err() off the per-round hot
// path.
const cancelCheckMask = 63

// scheduler is the bounded worker pool of a run. Its capacity is
// workers-1 because the submitting goroutine always works too (the inline
// fallback of do), so at most `workers` partition jobs run concurrently
// and submission never blocks — which also makes the nested fan-out
// (level-1 partitions scheduling level-2 partitions) deadlock-free. At
// one worker it has no slot and runs everything inline.
type scheduler struct {
	workers  int
	sem      chan struct{}
	degraded *budgetState // when non-nil and degraded, stop spawning
}

// initExec gives the run its scheduler and its arena-bundle pool. Every
// run has both: the scheduler alone decides whether a partition runs on a
// pooled goroutine or inline, and every engine draws its bundle from the
// pool.
func (e *engine) initExec(workers int) {
	e.sched = &scheduler{workers: workers, sem: make(chan struct{}, workers-1), degraded: e.budget}
	e.pool = &scratchPool{maxItem: e.maxItem, avlRec: e.avlRec, cntRec: e.cntRec}
}

// do runs fn on its own goroutine when a worker slot is free, and inline
// on the caller otherwise. Spawned goroutines are tracked by wg; callers
// wait on it after submitting a whole batch. A degraded run (resource
// budget nearly exhausted) shrinks the pool by running everything inline
// from then on: in-flight workers finish, no new goroutines (and none of
// their private scratch state) are created.
func (s *scheduler) do(wg *sync.WaitGroup, fn func()) {
	if s.degraded.isDegraded() {
		fn()
		return
	}
	select {
	case s.sem <- struct{}{}:
		wg.Add(1)
		go func() {
			defer func() {
				<-s.sem
				wg.Done()
			}()
			fn()
		}()
	default:
		fn()
	}
}

// progressTracker serializes Options.Progress callbacks and counts
// completed first-level partitions. Its closing contract: consumers see
// a final Done == Total event exactly once, whether the run completes,
// a partition errors, or the context is cancelled mid-run — so
// "finished" is always distinguishable from "abandoned".
type progressTracker struct {
	mu      sync.Mutex
	fn      mining.ProgressFunc
	done    int
	total   int
	workers int
	begun   bool
	closed  bool
}

// begin announces the first-level partition count.
func (p *progressTracker) begin(total int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return
	}
	p.total = total
	p.begun = true
	p.fn(mining.ProgressEvent{Stage: mining.StagePartitions, Done: 0, Total: total, Workers: p.workers})
}

// step reports one more completed first-level partition.
func (p *progressTracker) step() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return
	}
	p.done++
	p.fn(mining.ProgressEvent{Stage: mining.StagePartitions, Done: p.done, Total: p.total, Workers: p.workers})
}

// finish closes the stream when the run ends. A run that stepped through
// every partition already emitted its Done == Total event and gets no
// duplicate; an interrupted run (error, cancellation, or a run that died
// before begin) gets the final event synthesized here. Idempotent; safe
// on a nil tracker (no Progress configured). The engine calls it after
// every worker has stopped, so no step can race in behind it.
func (p *progressTracker) finish() {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return
	}
	p.closed = true
	if p.begun && p.done == p.total {
		return
	}
	p.done = p.total
	p.fn(mining.ProgressEvent{Stage: mining.StagePartitions, Done: p.total, Total: p.total, Workers: p.workers})
}

// split files members into the partition of every frequent extension of
// key they contain (eagerBuckets), mines each partition left with at
// least δ members, and merges the partitions back in ascending key order
// (list is sorted): Steps 2.1 and 2.2 of Figure 2. supports[i] is
// list[i]'s support among the members the caller counted.
//
// A split above parallelSplitDepth hands each partition to a child engine
// with private patterns, statistics and scratch state, which the
// scheduler runs on a pooled goroutine or inline. A deeper split runs its
// partitions inline on its own engine. Which partitions get child engines
// depends on the level only, never on the worker count, so the merged
// result and statistics do not either.
//
// At level 0 it is also the shard filter and the checkpoint boundary
// (see fates): partitions another shard owns are skipped, partitions a
// prior run completed are restored instead of re-mined, and each freshly
// completed partition is recorded the moment its worker finishes.
// Restored and mined partitions interleave in the same ascending-key
// merge, so a resumed run's result set is byte-identical to a straight
// run's.
//
// Worker closures run under mining.Contain: a panic inside a partition
// (an injected fault or a violated invariant) surfaces as that
// partition's error — the run drains cleanly and Mine returns an
// *mining.InvariantError — instead of killing the process from a
// goroutine no caller can recover.
func (e *engine) split(key seq.Pattern, members []member, list []seq.Pattern, supports []int, level int) error {
	mine, restored := e.fates(list, level)
	// The closure is timed where the fan-out is; deeper splits, like
	// deeper partitions (partitionStages), are too many to time one by one.
	var sp obs.Span
	if e.obs != nil && level < parallelSplitDepth {
		sp = e.obs.SpanUnder(e.cur, "eager_buckets")
	}
	buckets, err := e.eagerBuckets(key, members, list, supports, mine)
	sp.End()
	if err != nil {
		return err
	}
	if level >= parallelSplitDepth {
		// Below the fan-out: each partition runs inline on this engine, in
		// ascending key order, through this level's member buffer.
		for i, b := range buckets {
			if len(b) < e.minSup {
				continue
			}
			if err := e.processPartition(list[i], e.scratch().filedMembers(level, members, b), level+1); err != nil {
				return err
			}
		}
		return nil
	}
	if level == 0 && e.prog != nil {
		e.prog.begin(len(list))
	}
	children := make([]*engine, len(list))
	errs := make([]error, len(list))
	var wg sync.WaitGroup
	for i := range list {
		if mine != nil && !mine[i] {
			if p := restored[i]; p != nil {
				e.ckpt.reuse(*p)
			}
			if e.prog != nil {
				e.prog.step()
			}
			continue
		}
		if len(buckets[i]) < e.minSup {
			// Too few members survive reduction to host a frequent
			// (level+2)-sequence; the partition key itself was already
			// counted by the parent.
			if level == 0 && e.prog != nil {
				e.prog.step()
			}
			continue
		}
		i := i
		child := e.child()
		children[i] = child
		e.sched.do(&wg, func() {
			errs[i] = contain(list[i], func() error {
				return child.processPartition(list[i], child.scratch().filedMembers(level, members, buckets[i]), level+1)
			})
			child.releaseScratch()
			if errs[i] == nil && level == 0 && e.ckpt != nil {
				e.ckpt.record(list[i], child.pats, &child.stats)
			}
			if level == 0 && e.prog != nil {
				e.prog.step()
			}
		})
	}
	wg.Wait()
	// Merge completed children and restored partitions in ascending key
	// order before reporting any error: an interrupted run keeps the
	// statistics of the work that did finish, and the merged order is
	// identical whether a partition was mined now or restored.
	n := len(e.pats)
	for i := range list {
		if p := restored[i]; p != nil {
			n += len(p.Patterns)
		} else if children[i] != nil && errs[i] == nil {
			n += len(children[i].pats)
		}
	}
	e.pats = slices.Grow(e.pats, n-len(e.pats))
	var firstErr error
	for i := range list {
		if errs[i] != nil && firstErr == nil {
			firstErr = errs[i]
		}
		if p := restored[i]; p != nil {
			e.pats = append(e.pats, p.Patterns...)
			st := statsFromCheckpoint(&p.Stats)
			e.stats.merge(&st)
			continue
		}
		if child := children[i]; child != nil && errs[i] == nil {
			e.stats.merge(&child.stats)
			e.pats = append(e.pats, child.pats...)
		}
	}
	return firstErr
}

// fates decides, before a split files anything, what becomes of each
// partition list[i]. Only a level-0 split of a sharded or checkpointed
// run leaves any out. A first-level partition hashing outside this run's
// shard belongs to another worker. It is checked before the checkpoint,
// so a resumed shard consumes only its own restored partitions even if
// the checkpoint carries foreign ones. A partition the checkpoint holds is
// restored: restored[i] is its prior result. Every other partition is
// mined, and mine[i] marks it; a nil mine means every partition is.
func (e *engine) fates(list []seq.Pattern, level int) (mine []bool, restored []*checkpoint.Partition) {
	restored = make([]*checkpoint.Partition, len(list))
	if level > 0 || (e.shard == nil && e.ckpt == nil) {
		return nil, restored
	}
	mine = make([]bool, len(list))
	for i, key := range list {
		if e.shard != nil && ShardOf(key, e.shard.Count) != e.shard.Index {
			continue
		}
		if e.ckpt != nil {
			if p, ok := e.ckpt.lookup(key); ok {
				restored[i] = &p
				continue
			}
		}
		mine[i] = true
	}
	return mine, restored
}

// eagerBuckets assigns every member to the bucket of each frequent
// extension of key it contains — the transitive closure of Figure 2's
// reassignment walk, computed up front so the partitions can be scheduled
// in any order. One extension scan per member finds them all: key's index
// table turns each contained frequent extension into its bucket, and the
// scan's first report of an extension, its leftmost match, files the
// member there at the extension's matching point. Later reports of the
// same extension in the same scan are skipped by the member's index, not
// by its sequence: a database may hold one *seq.CustomerSeq several
// times, and each copy is a customer of its own. Bucket i thus collects
// the members containing list[i] in member order, making each scheduled
// partition's input (and hence the merged output) independent of
// scheduling order.
//
// A non-nil mine restricts the closure to the partitions the run will
// mine: the index table leaves every other extension out, so it gets no
// bucket and no filings. A shard run thus files only its own partitions'
// members, and a run that mines none of them (the cluster's assembly)
// skips the scan altogether.
//
// supports[i] counts the members containing list[i] before the caller's
// §3.1 reduction, which only drops customers, so it bounds bucket i's
// size: the buckets are carved out of one allocation and filing never
// regrows one.
//
// With several workers and enough members the closure walk is itself
// chunked across the pool; chunk results are concatenated in member
// order. Chunk goroutines run under mining.Contain, so a panic in a scan
// comes back as an error, never as a process crash. They read the
// submitting engine's index table concurrently but strictly read-only,
// and all of them finish (wg.Wait) before eagerBuckets returns: the table
// is dead once the buckets exist.
func (e *engine) eagerBuckets(key seq.Pattern, members []member, list []seq.Pattern, supports []int, mine []bool) ([][]filing, error) {
	total := 0
	for i, n := range supports {
		if mine == nil || mine[i] {
			total += n
		}
	}
	buckets := make([][]filing, len(list))
	if total == 0 {
		return buckets, nil
	}
	flat := make([]filing, total)
	for i, n := range supports {
		if mine == nil || mine[i] {
			buckets[i], flat = flat[:0:n], flat[n:]
		}
	}
	s := e.scratch()
	tab := s.table.fill(s.maxItem, key.LastTNoOrZero(), list, mine)
	// assign files members[lo:hi] into buckets; filed[b] holds the index
	// (plus one) of the member last filed into bucket b.
	assign := func(lo, hi int, buckets [][]filing, filed []int32) {
		var idx int32
		add := func(b int32, pos int) {
			if b == 0 || filed[b-1] == idx+1 {
				return
			}
			filed[b-1] = idx + 1
			buckets[b-1] = append(buckets[b-1], filing{idx: idx, at: int32(pos)})
		}
		onI := func(x seq.Item, pos int) { add(tab.i[x], pos) }
		onS := func(x seq.Item, pos int) { add(tab.s[x], pos) }
		for i := lo; i < hi; i++ {
			idx = int32(i)
			mb := members[i]
			if key.IsEmpty() {
				for pos, x := range mb.cs.Items() {
					onS(x, pos)
				}
				continue
			}
			kmin.EnumExtensions(mb.cs, key, mb.at, onI, onS)
		}
	}
	const chunkMin = 256 // below this, chunking overhead beats the win
	chunks := min(e.sched.workers, len(members)/chunkMin)
	if chunks < 2 {
		// Inline on the submitting goroutine: a panic here is contained
		// by the enclosing Contain of the worker (or of run itself).
		assign(0, len(members), buckets, make([]int32, len(list)))
		return buckets, nil
	}
	per := (len(members) + chunks - 1) / chunks
	parts := make([][][]filing, chunks)
	errs := make([]error, chunks)
	var wg sync.WaitGroup
	for c := 0; c < chunks; c++ {
		c := c
		lo := c * per
		hi := min(lo+per, len(members))
		part := make([][]filing, len(list))
		parts[c] = part
		e.sched.do(&wg, func() {
			errs[c] = contain(key, func() error {
				assign(lo, hi, part, make([]int32, len(list)))
				return nil
			})
		})
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	for i := range buckets {
		for _, part := range parts {
			buckets[i] = append(buckets[i], part[i]...)
		}
	}
	return buckets, nil
}
