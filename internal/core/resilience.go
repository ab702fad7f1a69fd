// Resilience layer of the DISC-all engine: checkpoint/resume of
// first-level partitions and the soft resource budgets with their
// degradation ladder. Panic containment lives at the goroutine
// boundaries in parallel.go and run (core.go); the deterministic
// fault-injection points are in processPartition.
package core

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/disc-mining/disc/internal/checkpoint"
	"github.com/disc-mining/disc/internal/mining"
	"github.com/disc-mining/disc/internal/seq"
)

// Checkpointer carries completed first-level partition results across
// runs of one mining job. Attached to Options.Checkpoint it makes the
// engine (1) record each first-level partition's result set and
// statistics as the partition completes, and (2) skip — restoring the
// recorded outcome instead — every partition a previous interrupted run
// already completed. Because partitions merge in ascending key order
// whether mined or restored, a resumed run produces a result set
// byte-identical to an uninterrupted one.
//
// A Checkpointer is safe for concurrent use: workers record into it
// while a snapshot (Snapshot/File) may be taken from another goroutine,
// e.g. on a periodic checkpoint interval.
type Checkpointer struct {
	mu        sync.Mutex
	restored  map[string]checkpoint.Partition // partition key -> prior result
	completed []checkpoint.Partition          // this run's completed partitions, in completion order
	reused    int                             // restored partitions consumed by this run
}

// NewCheckpointer returns an empty checkpointer (a fresh, resumable
// run).
func NewCheckpointer() *Checkpointer {
	return &Checkpointer{restored: map[string]checkpoint.Partition{}}
}

// ResumeFrom returns a checkpointer seeded with the completed partitions
// of a decoded checkpoint: the next run skips them.
func ResumeFrom(f *checkpoint.File) *Checkpointer {
	c := NewCheckpointer()
	for _, p := range f.Partitions {
		c.restored[p.Key.Key()] = p
	}
	return c
}

// lookup hands back the stored outcome of a first-level partition, if a
// prior run completed it. The level-0 split looks every partition up
// before it files anything (a restored partition gets no bucket), and
// consumes the restored ones with reuse in key order afterwards.
func (c *Checkpointer) lookup(key seq.Pattern) (checkpoint.Partition, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	p, ok := c.restored[key.Key()]
	return p, ok
}

// reuse consumes a restored partition. It counts as completed for the
// current run too, so a resumed-then-interrupted run writes a checkpoint
// covering both runs' work.
func (c *Checkpointer) reuse(p checkpoint.Partition) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reused++
	c.completed = append(c.completed, p)
}

// record snapshots one freshly completed first-level partition. It sorts
// the partition's patterns in place and keeps the slice, which nothing
// writes to again (the merge only reads it).
func (c *Checkpointer) record(key seq.Pattern, pats []mining.PatternCount, stats *Stats) {
	slices.SortFunc(pats, func(a, b mining.PatternCount) int { return seq.Compare(a.Pattern, b.Pattern) })
	p := checkpoint.Partition{
		Key:      key,
		Patterns: pats,
		Stats:    statsToCheckpoint(stats),
	}
	c.mu.Lock()
	c.completed = append(c.completed, p)
	c.mu.Unlock()
}

// RecordPartition folds an externally completed first-level partition —
// one a cluster worker mined and shipped back in its shard checkpoint —
// into this checkpointer, as if the local run had completed it. The
// coordinator records received partitions here so the job's ordinary
// periodic snapshots persist cluster progress too.
func (c *Checkpointer) RecordPartition(p checkpoint.Partition) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.completed = append(c.completed, p)
}

// RestoredPartitions returns the partitions this checkpointer was seeded
// with (ResumeFrom), sorted by key. The coordinator uses it to pre-seed
// shard accumulators, so a restarted clustered job does not re-dispatch
// work a previous incarnation already collected.
func (c *Checkpointer) RestoredPartitions() []checkpoint.Partition {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]checkpoint.Partition, 0, len(c.restored))
	for _, p := range c.restored {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key.Key() < out[j].Key.Key() })
	return out
}

// Completed returns how many first-level partitions the current run has
// finished (mined or restored).
func (c *Checkpointer) Completed() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.completed)
}

// Restored returns how many partitions the current run skipped by
// restoring a prior run's results.
func (c *Checkpointer) Restored() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.reused
}

// File snapshots the completed partitions into an encodable checkpoint
// for the given job identity. Safe to call while the run is still in
// flight (periodic checkpointing) — it captures whatever has completed
// so far.
func (c *Checkpointer) File(algo string, minSup int, fingerprint uint64) *checkpoint.File {
	c.mu.Lock()
	parts := append([]checkpoint.Partition(nil), c.completed...)
	c.mu.Unlock()
	return &checkpoint.File{Algo: algo, Fingerprint: fingerprint, MinSup: minSup, Partitions: parts}
}

// CheckpointFingerprint binds a checkpoint to a mining job: the
// algorithm, the options that shape the first-level partition
// decomposition and the recorded statistics (BiLevel, Levels, Gamma —
// Workers is excluded, results and partitions are identical at every
// worker count), δ and the database content.
func CheckpointFingerprint(algo string, o Options, minSup int, db mining.Database) uint64 {
	return checkpoint.Fingerprint(algo, OptionsSignature(o), minSup, db)
}

// OptionsSignature renders the options that enter CheckpointFingerprint:
// the fingerprints of one database under two Options are equal when
// their signatures are (and algorithm and δ agree).
func OptionsSignature(o Options) string {
	return fmt.Sprintf("bilevel=%t levels=%d gamma=%g", o.BiLevel, o.Levels, o.Gamma)
}

// statsToCheckpoint projects a partition worker's statistics into the
// serializable checkpoint form.
func statsToCheckpoint(s *Stats) checkpoint.PartitionStats {
	return checkpoint.PartitionStats{
		Rounds: s.Rounds, FrequentHits: s.FrequentHits, Skips: s.Skips,
		KMSCalls: s.KMSCalls, CKMSCalls: s.CKMSCalls, Dropped: s.Dropped,
		PartitionsByLevel: append([]int(nil), s.PartitionsByLevel...),
		NRRByLevel:        append([]float64(nil), s.NRRByLevel...),
		NRRCount:          append([]int(nil), s.nrrCount...),
	}
}

// statsFromCheckpoint is the inverse projection; restored statistics
// merge exactly as the live partition's would have (NRR counts are
// preserved, so the weighted means combine bit-identically).
func statsFromCheckpoint(p *checkpoint.PartitionStats) Stats {
	return Stats{
		Rounds: p.Rounds, FrequentHits: p.FrequentHits, Skips: p.Skips,
		KMSCalls: p.KMSCalls, CKMSCalls: p.CKMSCalls, Dropped: p.Dropped,
		PartitionsByLevel: append([]int(nil), p.PartitionsByLevel...),
		NRRByLevel:        append([]float64(nil), p.NRRByLevel...),
		nrrCount:          append([]int(nil), p.NRRCount...),
	}
}

// budgetState tracks the run's soft resource budgets. It is shared
// across the engine tree; recording sites (pattern additions, heap
// samples) flip it to degraded or breached, and the engine's control
// points (partition entries, DISC round loops) observe the breach and
// stop. A nil *budgetState (no budgets configured) costs one pointer
// check everywhere.
type budgetState struct {
	maxPatterns int64
	maxMem      int64
	patterns    atomic.Int64
	memTick     atomic.Int64
	degraded    atomic.Bool
	breach      atomic.Pointer[mining.BudgetError]
}

// newBudgetState returns nil when no budget is configured.
func newBudgetState(o Options) *budgetState {
	if o.MaxPatterns <= 0 && o.MaxMemBytes <= 0 {
		return nil
	}
	return &budgetState{maxPatterns: int64(o.MaxPatterns), maxMem: o.MaxMemBytes}
}

// err returns the budget breach that stops the run, if one happened.
func (b *budgetState) err() error {
	if b == nil {
		return nil
	}
	if e := b.breach.Load(); e != nil {
		return e
	}
	return nil
}

// isDegraded reports whether the degradation ladder has been entered.
func (b *budgetState) isDegraded() bool {
	return b != nil && b.degraded.Load()
}

// notePatterns records n newly discovered frequent patterns: past
// BudgetDegradeFraction of the pattern budget the run degrades, past the
// budget itself it is marked breached (the next control point stops).
func (b *budgetState) notePatterns(n int) {
	if b == nil || b.maxPatterns <= 0 {
		return
	}
	total := b.patterns.Add(int64(n))
	if total > b.maxPatterns {
		b.breach.CompareAndSwap(nil, &mining.BudgetError{
			Resource: "patterns", Limit: b.maxPatterns, Used: total,
		})
		return
	}
	if float64(total) >= mining.BudgetDegradeFraction*float64(b.maxPatterns) {
		b.degraded.Store(true)
	}
}

// sampleMem samples memory against the budget at a partition boundary.
// Two signals feed it: scratchBytes, the calling engine's exact arena
// slab footprint (O(1) to read, so it is checked on every call — the
// degrade path sees the allocator's own accounting even between heap
// samples), and the global heap, whose ReadMemStats briefly stops the
// world and therefore runs only one call in 32.
func (b *budgetState) sampleMem(scratchBytes int64) {
	if b == nil || b.maxMem <= 0 {
		return
	}
	if scratchBytes > b.maxMem {
		b.breach.CompareAndSwap(nil, &mining.BudgetError{
			Resource: "memory", Limit: b.maxMem, Used: scratchBytes,
		})
		return
	}
	if float64(scratchBytes) >= mining.BudgetDegradeFraction*float64(b.maxMem) {
		b.degraded.Store(true)
	}
	if b.memTick.Add(1)&31 != 1 {
		return
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	used := int64(ms.HeapAlloc)
	if used > b.maxMem {
		b.breach.CompareAndSwap(nil, &mining.BudgetError{
			Resource: "memory", Limit: b.maxMem, Used: used,
		})
		return
	}
	if float64(used) >= mining.BudgetDegradeFraction*float64(b.maxMem) {
		b.degraded.Store(true)
	}
}
