// Observability threading of the engine. The contract with internal/obs:
// recording sites inside the mining recursion never talk to the registry —
// hot substrate counters (AVL rotations, counting-array dedup hits)
// accumulate into local nil-safe recorders and per-partition counters
// accumulate into the same Stats the merge machinery already carries;
// flushObs folds everything into registry instruments once per run. The
// registry is therefore a read-through of Stats: LastStats and /metrics
// are computed from one accumulation and cannot disagree.
package core

import (
	"errors"
	"fmt"

	"github.com/disc-mining/disc/internal/avl"
	"github.com/disc-mining/disc/internal/counting"
	"github.com/disc-mining/disc/internal/mining"
	"github.com/disc-mining/disc/internal/obs"
)

// partitionStages names the partition span of each level that opens one:
// levels 0 through 2 are where the fan-out and the paper's partitioning
// decisions live; deeper recursion is far too frequent to time
// individually. The names are constants so that opening a span formats
// nothing.
var partitionStages = [...]string{"partition_l0", "partition_l1", "partition_l2"}

// initObs prepares the run's recorders. With no observer attached every
// recording site below costs a nil check and nothing else.
func (e *engine) initObs() {
	if e.opts.Obs == nil {
		return
	}
	e.obs = e.opts.Obs
	e.avlRec = &avl.Recorder{}
	e.cntRec = &counting.Recorder{}
}

// flushObs folds the run's merged statistics and substrate recorders into
// the observer's registry. Called once per run, success or failure —
// an interrupted run still reports the work that finished.
func (e *engine) flushObs(runErr error) {
	if e.obs == nil {
		return
	}
	r := e.obs.Registry
	if r == nil {
		return
	}
	s := &e.stats
	r.Counter("disc_mine_runs_total", "Completed engine runs (including failed ones).").Inc()
	r.Counter("disc_rounds_total", "DISC rounds: alpha_1 vs alpha_delta comparisons (Lemma 2.1/2.2 decisions).").Add(int64(s.Rounds))
	r.Counter("disc_frequent_hits_total", "DISC rounds where alpha_1 = alpha_delta: a frequent sequence taken with bucket-size support (Lemma 2.1).").Add(int64(s.FrequentHits))
	r.Counter("disc_skips_total", "DISC rounds where alpha_1 < alpha_delta: the whole range [alpha_1, alpha_delta) skipped without support counting (Lemma 2.2).").Add(int64(s.Skips))
	r.Counter("disc_kms_calls_total", "k-minimum subsequence generations.").Add(int64(s.KMSCalls))
	r.Counter("disc_ckms_calls_total", "Conditional k-minimum subsequence generations.").Add(int64(s.CKMSCalls))
	r.Counter("disc_dropped_customers_total", "Customers dropped from k-sorted databases for lack of a conditional k-minimum subsequence.").Add(int64(s.Dropped))
	for level, n := range s.PartitionsByLevel {
		r.Counter("disc_partitions_total", "Processed (frequent) partitions by level.",
			obs.Label{Key: "level", Value: fmt.Sprint(level)}).Add(int64(n))
	}
	if s.Degraded {
		r.Counter("disc_degraded_runs_total", "Runs that crossed a resource-budget degradation threshold.").Inc()
	}
	var be *mining.BudgetError
	if errors.As(runErr, &be) {
		r.Counter("disc_budget_breaches_total", "Runs stopped by an exhausted resource budget, by resource.",
			obs.Label{Key: "resource", Value: be.Resource}).Inc()
	}
	r.Counter("disc_arena_acquires_total", "Scratch-arena bundles drawn by the run's engines.").Add(int64(s.ArenaAcquires))
	r.Counter("disc_arena_reuses_total", "Arena draws satisfied by a warm pooled bundle (zero-allocation reuse).").Add(int64(s.ArenaReuses))
	r.Counter("disc_avl_rotations_total", "AVL rotations across the run's k-sorted database trees.").Add(e.avlRec.Rotations.Load())
	r.Counter("disc_avl_slab_grows_total", "Locative-tree slab reallocations (cold growth; warm rounds perform none).").Add(e.avlRec.SlabGrows.Load())
	r.Counter("disc_counting_dedup_hits_total", "Counting-array touches suppressed by the last-customer-id check (Figure 3 dedup).").Add(e.cntRec.DedupHits.Load())
}

// partitionSpan opens a tracing span for a partition level, or a zero
// no-op span when tracing is off or the level is below the fan-out. The
// span is parented to the engine's innermost open span, so a bound trace
// sees the partition hierarchy.
func (e *engine) partitionSpan(level int) obs.Span {
	if e.obs == nil || level >= len(partitionStages) {
		return obs.Span{}
	}
	return e.obs.SpanUnder(e.cur, partitionStages[level])
}
