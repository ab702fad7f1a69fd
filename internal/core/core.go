// Package core implements the contribution of Chiu, Wu & Chen (ICDE 2004):
// the DISC (DIrect Sequence Comparison) strategy and the DISC-all and
// Dynamic DISC-all algorithms.
//
// The DISC strategy (§1.2, §2) finds all frequent k-sequences of a
// partition without computing support counts of non-frequent sequences: a
// k-sorted database keeps every customer ordered by its current k-minimum
// subsequence; the candidate α₁ (minimum) is frequent iff it equals the
// condition α_δ (the key at rank δ), in which case its support is the size
// of its bucket (Lemma 2.1); otherwise every k-sequence in [α₁, α_δ) is
// skipped wholesale (Lemma 2.2) and the affected customers move to their
// conditional k-minimum subsequences (Definition 2.5).
//
// DISC-all (§3, Figure 2) combines four strategies: multi-level database
// partitioning (by minimum 1-sequences, then 2-minimum sequences), customer
// sequence reducing (§3.1 removal of non-frequent 1-/2-sequence
// occurrences), candidate sequence pruning (Apriori-KMS/CKMS only extend
// frequent (k-1)-prefixes), and DISC itself for lengths ≥ 4, with the
// bi-level technique (§3.2) discovering frequent k- and (k+1)-sequences in
// one pass over each k-sorted database.
//
// Dynamic DISC-all (Appendix) replaces the fixed two-level split with a
// per-partition decision: keep partitioning while the partition's
// non-reduction rate (NRR, Eq. 2) is below a threshold γ, switch to DISC
// once it is not.
package core

import (
	"context"
	"fmt"
	"slices"
	"sort"

	"github.com/disc-mining/disc/internal/avl"
	"github.com/disc-mining/disc/internal/counting"
	"github.com/disc-mining/disc/internal/faultinject"
	"github.com/disc-mining/disc/internal/kmin"
	"github.com/disc-mining/disc/internal/mining"
	"github.com/disc-mining/disc/internal/obs"
	"github.com/disc-mining/disc/internal/seq"
)

func init() {
	mining.Register("disc-all", func() mining.Miner { return New() })
	mining.Register("dynamic-disc-all", func() mining.Miner { return NewDynamic() })
}

// Options configures the DISC-all family.
type Options struct {
	// BiLevel enables the §3.2 bi-level technique (one k-sorted database
	// yields both frequent k- and (k+1)-sequences). The paper's
	// experimental version has it on, and DefaultOptions selects it; the
	// zero Options leaves it off.
	BiLevel bool

	// Levels is the number of partitioning levels of the static DISC-all.
	// The paper presents and evaluates the two-level scheme, which
	// DefaultOptions selects (Levels = 2). Zero or negative disables
	// partitioning entirely — the pure DISC strategy runs on the whole
	// database from length 2 upward, the ablation baseline for the
	// multi-level partitioning strategy. The mining run uses the value as
	// given: defaults are resolved only by New and DefaultOptions, so an
	// explicit 0 is representable. Ignored by Dynamic.
	Levels int

	// Gamma is the Dynamic DISC-all NRR threshold γ: a partition whose NRR
	// is at least γ switches from partitioning to DISC. γ = 0 (or below)
	// switches to DISC immediately on the whole database; γ ≥ 1 partitions
	// for as long as partitioning is productive. The mining run uses the
	// value as given: defaults are resolved only by NewDynamic and
	// DefaultOptions (γ = 0.5), so an explicit 0 is representable. Ignored
	// by the static algorithm.
	Gamma float64

	// Workers bounds the number of concurrent partition workers of the
	// execution layer. 0 selects runtime.GOMAXPROCS(0); 1 forces the
	// serial walk. The mined result is identical at every setting: the
	// parallel scheduler assigns deterministic per-partition inputs and
	// merges partition results in ascending key order.
	Workers int

	// Progress, when non-nil, receives execution progress events (one per
	// scheduled and per completed first-level partition). Callbacks are
	// serialized but may run on worker goroutines.
	Progress mining.ProgressFunc

	// MaxPatterns and MaxMemBytes are the soft resource budgets of the
	// run (see mining.ExecOptions): past 80% of a budget the engine
	// degrades (single-level partitioning, inline workers — both
	// result-preserving), past 100% it stops with a *mining.BudgetError.
	// Zero means unlimited.
	MaxPatterns int
	MaxMemBytes int64

	// Checkpoint, when non-nil, enables checkpoint/resume: the engine
	// records each completed first-level partition into the Checkpointer
	// and skips partitions it already holds (from ResumeFrom). The mined
	// result set is byte-identical with or without checkpointing, and a
	// killed-then-resumed run equals an uninterrupted one.
	Checkpoint *Checkpointer

	// Shard, when non-nil, restricts the run to one shard of the
	// first-level partition space (see ShardSpec): partitions hashing
	// outside the shard are skipped after the level-0 scan. The cluster
	// layer sets it on worker runs; it is not part of the checkpoint
	// fingerprint — a shard is a piece of the same job, not a different
	// one. Combined with Checkpoint, the run records exactly its shard's
	// completed partitions.
	Shard *ShardSpec

	// Faults, when non-nil, arms the deterministic fault-injection
	// points at partition boundaries (faultinject.WorkerPanic,
	// faultinject.CtxCancel). Production runs leave it nil; the
	// resilience tests drive every containment and recovery path
	// through it.
	Faults *faultinject.Injector

	// Obs, when non-nil, attaches the observability layer: the run opens
	// tracing spans around the mine and its shallow partitions, counts
	// AVL rotations and counting-array dedup hits through nil-safe
	// recorders, and folds the merged Stats into the observer's registry
	// when it finishes — /metrics and LastStats read the same numbers.
	// It does not influence the mined result or the checkpoint identity.
	Obs *obs.Observer
}

// WithExec copies the execution-layer settings of x into the options.
func (o Options) WithExec(x mining.ExecOptions) Options {
	o.Workers = x.Workers
	o.Progress = x.Progress
	o.MaxPatterns = x.MaxPatterns
	o.MaxMemBytes = x.MaxMemBytes
	return o
}

// EffectiveWorkers resolves the Workers field (values below 1 select
// GOMAXPROCS), mirroring mining.ExecOptions.
func (o Options) EffectiveWorkers() int {
	return mining.ExecOptions{Workers: o.Workers}.EffectiveWorkers()
}

// DefaultOptions returns the configuration used in the paper's experiments:
// bi-level on, two partitioning levels, γ = 0.5 for the dynamic variant.
func DefaultOptions() Options {
	return Options{BiLevel: true, Levels: 2, Gamma: 0.5}
}

// Stats reports what a run did; retrieved with Miner.LastStats.
type Stats struct {
	// Rounds is the number of DISC iterations (α₁ vs α_δ comparisons).
	Rounds int
	// FrequentHits counts rounds with α₁ = α_δ (a frequent sequence found).
	FrequentHits int
	// Skips counts rounds with α₁ ≠ α_δ (a whole key range skipped without
	// support counting).
	Skips int
	// KMSCalls and CKMSCalls count minimum-subsequence generations.
	KMSCalls, CKMSCalls int
	// Dropped counts customers removed from k-sorted databases for lack of
	// a conditional k-minimum subsequence.
	Dropped int
	// PartitionsByLevel counts processed (frequent) partitions per level.
	PartitionsByLevel []int
	// NRRByLevel aggregates the observed NRR of partitions per level
	// (sample mean over partitions where the decision was taken).
	NRRByLevel []float64
	// Degraded reports that the run crossed a resource-budget
	// degradation threshold (Options.MaxPatterns / MaxMemBytes) and
	// finished in the degraded execution shape. The result set is
	// unaffected.
	Degraded bool
	// ArenaAcquires counts scratch-arena bundles drawn by the run's
	// engines; ArenaReuses counts the draws satisfied by a warm bundle a
	// finished worker returned to the pool. Execution-shape counters like
	// Degraded: not part of the checkpoint identity.
	ArenaAcquires int
	ArenaReuses   int
	nrrCount      []int
}

func (s *Stats) observeNRR(level int, nrr float64) {
	for len(s.NRRByLevel) <= level {
		s.NRRByLevel = append(s.NRRByLevel, 0)
		s.nrrCount = append(s.nrrCount, 0)
	}
	n := float64(s.nrrCount[level])
	s.NRRByLevel[level] = (s.NRRByLevel[level]*n + nrr) / (n + 1)
	s.nrrCount[level]++
}

func (s *Stats) partitionProcessed(level int) {
	if n := level + 1 - len(s.PartitionsByLevel); n > 0 {
		// One growth for a child engine's first, deep partition.
		s.PartitionsByLevel = append(s.PartitionsByLevel, make([]int, n)...)
	}
	s.PartitionsByLevel[level]++
}

// merge folds the statistics of a completed partition worker into s. The
// scheduler merges workers in ascending partition-key order, so the merged
// statistics are deterministic for a fixed input; the counters equal the
// serial run's exactly, and the per-level NRR means (combined by weighted
// average) match it up to floating-point associativity.
func (s *Stats) merge(o *Stats) {
	s.Rounds += o.Rounds
	s.FrequentHits += o.FrequentHits
	s.Skips += o.Skips
	s.KMSCalls += o.KMSCalls
	s.CKMSCalls += o.CKMSCalls
	s.Dropped += o.Dropped
	s.ArenaAcquires += o.ArenaAcquires
	s.ArenaReuses += o.ArenaReuses
	for level, n := range o.PartitionsByLevel {
		for len(s.PartitionsByLevel) <= level {
			s.PartitionsByLevel = append(s.PartitionsByLevel, 0)
		}
		s.PartitionsByLevel[level] += n
	}
	for level, mean := range o.NRRByLevel {
		if o.nrrCount[level] == 0 {
			continue
		}
		for len(s.NRRByLevel) <= level {
			s.NRRByLevel = append(s.NRRByLevel, 0)
			s.nrrCount = append(s.nrrCount, 0)
		}
		n, m := float64(s.nrrCount[level]), float64(o.nrrCount[level])
		s.NRRByLevel[level] = (s.NRRByLevel[level]*n + mean*m) / (n + m)
		s.nrrCount[level] += o.nrrCount[level]
	}
}

// Miner is the static DISC-all algorithm (Figure 2).
type Miner struct {
	Opts  Options
	stats Stats
}

// New returns a DISC-all miner with the paper's default options.
func New() *Miner { return &Miner{Opts: DefaultOptions()} }

// Name implements mining.Miner.
func (m *Miner) Name() string { return "disc-all" }

// LastStats returns statistics from the most recent Mine call.
func (m *Miner) LastStats() Stats { return m.stats }

// Mine implements mining.Miner.
func (m *Miner) Mine(db mining.Database, minSup int) (*mining.Result, error) {
	return m.MineContext(context.Background(), db, minSup)
}

// MineContext implements mining.ContextMiner: the run observes ctx
// cooperatively (per partition, per DISC round batch) and returns ctx.Err()
// when cancelled, after every partition worker has stopped.
func (m *Miner) MineContext(ctx context.Context, db mining.Database, minSup int) (*mining.Result, error) {
	levels := m.Opts.Levels // used as given; New/DefaultOptions resolve defaults
	e := &engine{
		opts:   m.Opts,
		policy: func(level int, nrr float64) bool { return level < levels },
	}
	res, err := e.run(ctx, db, minSup)
	m.stats = e.stats
	return res, err
}

// Dynamic is the Dynamic DISC-all algorithm (Appendix): it partitions while
// the NRR is below γ and switches to DISC afterwards.
type Dynamic struct {
	Opts  Options
	stats Stats
}

// NewDynamic returns a Dynamic DISC-all miner with default options.
func NewDynamic() *Dynamic { return &Dynamic{Opts: DefaultOptions()} }

// Name implements mining.Miner.
func (d *Dynamic) Name() string { return "dynamic-disc-all" }

// LastStats returns statistics from the most recent Mine call.
func (d *Dynamic) LastStats() Stats { return d.stats }

// Mine implements mining.Miner.
func (d *Dynamic) Mine(db mining.Database, minSup int) (*mining.Result, error) {
	return d.MineContext(context.Background(), db, minSup)
}

// MineContext implements mining.ContextMiner (see Miner.MineContext).
func (d *Dynamic) MineContext(ctx context.Context, db mining.Database, minSup int) (*mining.Result, error) {
	gamma := d.Opts.Gamma // used as given; NewDynamic/DefaultOptions resolve defaults
	e := &engine{
		opts:   d.Opts,
		policy: func(level int, nrr float64) bool { return nrr < gamma },
	}
	res, err := e.run(ctx, db, minSup)
	d.stats = e.stats
	return res, err
}

// member is one customer sequence inside a partition: cs, and at, the
// flattened position in cs of the partition key's leftmost matching point
// (the paper's matching point M; -1 at the root, whose key is empty). The
// scan that files a member into a partition finds that point, so every
// scan inside the partition starts from it instead of matching the key
// again.
type member struct {
	cs *seq.CustomerSeq
	at int
}

// filing is one member filed into a bucket of a split: its index in the
// split's member slice and the matching point of the bucket's extension
// in its sequence. A split keeps its buckets until its last partition
// finishes, so they hold these 8-byte filings; a partition's members are
// built from them only while it runs (scratch.filedMembers).
type filing struct {
	idx, at int32
}

// engine runs the shared partition-or-DISC recursion. A parallel run
// creates one child engine per scheduled partition (its own patterns,
// statistics and counting-array scratch state) and merges the children
// back in ascending partition-key order; ctx, sched, pool and prog are
// shared across the engine tree.
type engine struct {
	opts    Options
	policy  func(level int, nrr float64) bool
	minSup  int
	pats    []mining.PatternCount // this engine's frequent patterns; the run's root turns them into the Result
	maxItem seq.Item
	scr     *scratch // this engine's arena bundle; drawn lazily (see arena.go)
	stats   Stats
	ctx     context.Context       // nil means "never cancelled" (direct engine use in tests)
	sched   *scheduler            // nil for a serial run
	pool    *scratchPool          // shared arena-bundle pool of a parallel run
	prog    *progressTracker      // nil unless Options.Progress is set
	budget  *budgetState          // nil unless a resource budget is set
	ckpt    *Checkpointer         // nil unless checkpoint/resume is enabled
	shard   *ShardSpec            // nil unless this run mines one shard of the partition space
	faults  *faultinject.Injector // nil in production runs
	obs     *obs.Observer         // nil unless Options.Obs is set
	cur     obs.Span              // innermost open span: the parent for spans opened below
	avlRec  *avl.Recorder         // run-wide rotation recorder; nil without obs
	cntRec  *counting.Recorder    // run-wide dedup recorder; nil without obs
}

func (e *engine) run(ctx context.Context, db mining.Database, minSup int) (*mining.Result, error) {
	if minSup < 1 {
		minSup = 1
	}
	e.minSup = minSup
	e.ctx = ctx
	e.maxItem = db.MaxItem()
	if err := e.cancelled(); err != nil {
		return nil, err
	}
	if len(db) == 0 {
		return mining.NewResult(), nil
	}
	workers := e.opts.EffectiveWorkers()
	if e.opts.Progress != nil {
		e.prog = &progressTracker{fn: e.opts.Progress, workers: workers}
	}
	e.budget = newBudgetState(e.opts)
	e.ckpt = e.opts.Checkpoint
	if s := e.opts.Shard; s != nil {
		if err := s.Validate(); err != nil {
			return nil, err
		}
		if s.Count > 1 { // 1 of 1 is just a local run
			e.shard = s
		}
	}
	e.faults = e.opts.Faults
	e.initObs()
	if workers > 1 {
		e.sched = newScheduler(workers)
		e.sched.degraded = e.budget
		e.pool = &scratchPool{maxItem: e.maxItem, avlRec: e.avlRec, cntRec: e.cntRec}
	}
	members := make([]member, len(db))
	for i, cs := range db {
		members[i] = member{cs: cs, at: -1}
	}
	// The serial walk (and everything the root goroutine itself executes)
	// is contained here; worker goroutines are contained at their spawn
	// sites in parallel.go. Either way a panic surfaces as an
	// *mining.InvariantError from Mine instead of crashing the process.
	// The root is the only engine that builds a Result: a pattern mined
	// twice panics in its Add here.
	sp := e.obs.Span("mine")
	e.cur = sp
	var res *mining.Result
	err := contain(seq.Pattern{}, func() error {
		if err := e.processPartition(seq.Pattern{}, members, 0); err != nil {
			return err
		}
		res = mining.NewResultSize(len(e.pats))
		for _, pc := range e.pats {
			res.Add(pc.Pattern, pc.Support)
		}
		return nil
	})
	sp.End()
	e.releaseScratch()
	// The run is over: close the progress stream (so consumers always see
	// a final Done == Total event, even on error or cancellation) and fold
	// the merged statistics into the observer's registry.
	e.prog.finish()
	e.stats.Degraded = e.budget.isDegraded()
	e.flushObs(err)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// child returns a worker engine for one scheduled partition: it shares the
// run-wide configuration and coordination state but owns its patterns,
// statistics and counting arrays.
func (e *engine) child() *engine {
	return &engine{
		opts:    e.opts,
		policy:  e.policy,
		minSup:  e.minSup,
		maxItem: e.maxItem,
		ctx:     e.ctx,
		sched:   e.sched,
		pool:    e.pool,
		prog:    e.prog,
		budget:  e.budget,
		ckpt:    e.ckpt,
		shard:   e.shard,
		faults:  e.faults,
		obs:     e.obs,
		cur:     e.cur,
		avlRec:  e.avlRec,
		cntRec:  e.cntRec,
	}
}

// cancelled returns the context's error once the run is cancelled or past
// its deadline.
func (e *engine) cancelled() error {
	if e.ctx == nil {
		return nil
	}
	return e.ctx.Err()
}

// interrupted returns the first reason the run must stop: a context
// cancellation / deadline, or an exhausted resource budget. It is the
// check every cooperative stopping point uses.
func (e *engine) interrupted() error {
	if err := e.cancelled(); err != nil {
		return err
	}
	return e.budget.err()
}

// site names a partition for fault injection and contained-panic
// reports.
func site(key seq.Pattern) string {
	if key.IsEmpty() {
		return "<root>"
	}
	return key.String()
}

// contain runs fn under mining.Contain for the partition of key, naming
// the partition only when a panic is actually recovered: formatting a
// pattern for each of a run's tens of thousands of partitions would cost
// more than the containment itself.
func contain(key seq.Pattern, fn func() error) error {
	err := mining.Contain("", fn)
	if ie, ok := err.(*mining.InvariantError); ok && ie.Partition == "" {
		ie.Partition = site(key)
	}
	return err
}

// add records one frequent pattern of this engine.
func (e *engine) add(p seq.Pattern, support int) {
	e.pats = append(e.pats, mining.PatternCount{Pattern: p, Support: support})
}

// array returns the counting array for one recursion depth, from the
// engine's arena bundle (see arena.go: parallel runs draw whole bundles
// from a shared pool, so live scratch memory stays proportional to
// workers × depth rather than to the number of scheduled partitions).
func (e *engine) array(depth int) *counting.Array {
	return e.scratch().array(depth)
}

// processPartition handles one <key>-partition whose members are exactly
// the customers containing key (len(key) == level). It discovers the
// frequent (level+1)-sequences with prefix key, then either splits into
// child partitions or runs DISC, per the policy.
func (e *engine) processPartition(key seq.Pattern, members []member, level int) error {
	// Deterministic fault-injection points: a partition boundary is
	// where an injected worker panic or cancellation lands. Without an
	// injector they cost one pointer check; the partition is named only
	// for an injector.
	if e.faults != nil {
		name := site(key)
		e.faults.Panic(faultinject.WorkerPanic, name)
		e.faults.Cancel(faultinject.CtxCancel, name)
	}
	if err := e.interrupted(); err != nil {
		return err
	}
	e.budget.sampleMem(e.scratchBytes())
	e.stats.partitionProcessed(level)
	// The partition span becomes the parent of everything opened while
	// mining this partition — deeper partitions, eager-bucket closures —
	// so a traced run yields a hierarchy mirroring the recursion. The
	// previous innermost span is restored on the way out (the serial
	// split walks partitions depth-first on one goroutine; parallel
	// children each carry their own copy of cur from child()).
	sp := e.partitionSpan(level)
	prev := e.cur
	if sp.Live() {
		e.cur = sp
	}
	defer func() { sp.End(); e.cur = prev }()

	// Step 1: one scan with the counting array finds the frequent
	// extensions of key.
	listNext, supports := e.frequentExtensions(key, members, level)
	e.pats = slices.Grow(e.pats, len(listNext))
	for i, p := range listNext {
		e.add(p, supports[i])
	}
	e.budget.notePatterns(len(listNext))
	if len(listNext) == 0 {
		return nil
	}

	// The non-reduction rate of this partition (Eq. 2, with child sizes
	// taken as the children's support counts).
	sum := 0
	for _, s := range supports {
		sum += s
	}
	nrr := float64(sum) / float64(len(supports)) / float64(len(members))
	e.stats.observeNRR(level, nrr)

	// Customer sequence reducing (§3.1): inside a first-level partition,
	// occurrences that can only form non-frequent 1- or 2-sequences are
	// removed before going deeper.
	if level == 1 {
		var err error
		members, err = e.reduceMembers(key.LastItem(), members, listNext)
		if err != nil {
			return err
		}
	}

	// A checkpointed or sharded run always splits eagerly at level 0,
	// regardless of the policy: the eager split isolates each first-level
	// partition's result (for recording) and is where the shard filter
	// applies (a shard that fell through to the whole-database DISC loop
	// would mine every other shard's work too). Forcing the split is
	// result-preserving — the partitioning strategies never change the
	// mined set, only how it is found (the difftest Levels/γ grid pins
	// this) — so a γ=0 dynamic run and its forced-split shard still agree
	// byte for byte.
	if level == 0 && (e.ckpt != nil || e.shard != nil) {
		return e.splitParallel(key, members, listNext, supports, level)
	}
	// The degradation ladder's first rung: past the soft-budget
	// threshold, deeper partitions switch straight to DISC (the Levels=1
	// shape) — fewer live child partitions and scratch trees, with a
	// result set proven identical by the differential harness.
	if e.policy(level, nrr) && !(level >= 1 && e.budget.isDegraded()) {
		// The eager (scheduled) split handles level-0 and level-1 splits
		// of a parallel run.
		if len(listNext) > 1 && e.sched != nil && level < parallelSplitDepth {
			return e.splitParallel(key, members, listNext, supports, level)
		}
		return e.split(key, members, listNext, level)
	}
	return e.discLoop(members, listNext, level+2)
}

// split partitions members by their minimal contained frequent extension
// of key, processes the partitions in ascending order, and reassigns
// customers to their next minimal contained extension after each partition
// finishes (Steps 2.2 and 2.1.3.3 of Figure 2).
func (e *engine) split(key seq.Pattern, members []member, list []seq.Pattern, level int) error {
	s := e.scratch()
	tab := s.levelTable(level, key.LastTNoOrZero(), list)
	if level == 0 && e.prog != nil {
		e.prog.begin(len(list))
	}
	tree := s.splitTree(level)
	// file files members[i] under its minimal frequent extension of key
	// beyond the bound, at the extension's matching point; the walk
	// starts from key's, members[i].at.
	file := func(i int32, boundX seq.Item, boundNo int32, strict bool) {
		mb := members[i]
		if x, no, pos, ok := minFreqExtension(mb.cs, key, mb.at, tab, boundX, boundNo, strict); ok {
			tree.Insert(key.Extend(x, no), filing{idx: i, at: int32(pos)})
		}
	}
	for i := range members {
		file(int32(i), 0, 0, false)
	}
	for tree.Size() > 0 {
		if err := e.interrupted(); err != nil {
			return err
		}
		pkey, bucket, _ := tree.PopMin()
		// The bucket holds every remaining customer containing pkey, so
		// its size is pkey's exact support; pkey comes from the frequent
		// list.
		if len(bucket) >= e.minSup {
			if err := e.processPartition(pkey, s.filedMembers(level, members, bucket), level+1); err != nil {
				return err
			}
		}
		if level == 0 && e.prog != nil {
			e.prog.step()
		}
		bx, bno := pkey.LastItem(), pkey.LastTNo()
		for _, f := range bucket {
			file(f.idx, bx, bno, true)
		}
	}
	return nil
}

// minFreqExtension returns the minimal frequent extension pair (x, no) of
// key contained in cs, restricted to pairs greater than (boundX, boundNo)
// when strict (or at least it otherwise); boundX == 0 accepts everything.
// at is key's matching point in cs, pos the extension's. Frequency of a
// pair is read from key's index table: a non-zero entry in tab.i (the
// pair grows key's last itemset) or tab.s (it opens a new one).
func minFreqExtension(cs *seq.CustomerSeq, key seq.Pattern, at int, tab indexTable, boundX seq.Item, boundNo int32, strict bool) (x seq.Item, no int32, pos int, ok bool) {
	// Only a strictly smaller pair replaces the best one, so pos stays at
	// the pair's first report: its leftmost match.
	consider := func(y seq.Item, yno int32, p int) {
		if boundX != 0 {
			c := seq.ComparePair(y, yno, boundX, boundNo)
			if c < 0 || (strict && c == 0) {
				return
			}
		}
		if !ok || seq.ComparePair(y, yno, x, no) < 0 {
			x, no, pos, ok = y, yno, p, true
		}
	}
	if key.IsEmpty() {
		for p, y := range cs.Items() {
			if tab.s[y] != 0 {
				consider(y, 1, p)
			}
		}
		return x, no, pos, ok
	}
	n := key.LastTNo()
	kmin.EnumExtensions(cs, key, at,
		func(y seq.Item, p int) {
			if tab.i[y] != 0 {
				consider(y, n, p)
			}
		},
		func(y seq.Item, p int) {
			if tab.s[y] != 0 {
				consider(y, n+1, p)
			}
		})
	return x, no, pos, ok
}

// frequentExtensions finds the frequent (len(key)+1)-sequences with prefix
// key among members, in ascending order, together with their supports.
func (e *engine) frequentExtensions(key seq.Pattern, members []member, depth int) ([]seq.Pattern, []int) {
	s := e.scratch()
	arr := s.array(depth)
	if key.IsEmpty() {
		// Level 0: frequent 1-sequences.
		seen := s.seenBitmap()
		buf := s.itemBuf
		for ci, mb := range members {
			buf = mb.cs.DistinctItems(buf[:0], seen)
			for _, it := range buf {
				arr.TouchS(it, int32(ci))
			}
		}
		s.itemBuf = buf
	} else {
		for ci, mb := range members {
			cid := int32(ci)
			kmin.EnumExtensions(mb.cs, key, mb.at,
				func(x seq.Item, _ int) { arr.TouchI(x, cid) },
				func(x seq.Item, _ int) { arr.TouchS(x, cid) })
		}
	}
	s.fi = arr.FrequentI(e.minSup, s.fi[:0])
	s.fs = arr.FrequentS(e.minSup, s.fs[:0])
	return mergeExtensions(key, arr, s.fi, s.fs)
}

// mergeExtensions interleaves the frequent i- and s-extensions of key into
// one ascending pattern list. For equal items the i-form <.. x> precedes
// the s-form <..>(x) under the comparative order (smaller transaction
// number).
func mergeExtensions(key seq.Pattern, arr *counting.Array, fi, fs []seq.Item) ([]seq.Pattern, []int) {
	out := make([]seq.Pattern, 0, len(fi)+len(fs))
	sups := make([]int, 0, len(fi)+len(fs))
	i, j := 0, 0
	for i < len(fi) || j < len(fs) {
		if j >= len(fs) || (i < len(fi) && fi[i] <= fs[j]) {
			out = append(out, key.ExtendI(fi[i]))
			sups = append(sups, arr.SupI(fi[i]))
			i++
		} else {
			out = append(out, key.ExtendS(fs[j]))
			sups = append(sups, arr.SupS(fs[j]))
			j++
		}
	}
	return out, sups
}

// reduceMembers applies the §3.1 reduction inside the <(λ)>-partition:
// every item occurrence right of the minimum point survives only if it can
// still participate in a frequent sequence with first item λ, judged by the
// frequent 2-sequences <(λ)(x)> and <(λ x)>. Occurrences of λ itself are
// always kept. Customers reduced below length 3 are dropped (they were
// already counted for lengths 1 and 2).
//
// A member of the <(λ)>-partition must contain λ; a member that does not
// means the database violates the documented canonical form (itemsets
// sorted ascending, duplicate-free — see seq.NewCustomerSeq), and the run
// reports that as an error rather than crashing from a worker goroutine.
func (e *engine) reduceMembers(lambda seq.Item, members []member, list2 []seq.Pattern) ([]member, error) {
	s := e.scratch()
	// reduceMembers runs at level 1 while the level-0 split's index table
	// is live, so it uses the arena's dedicated one. A non-zero entry
	// marks a frequent 2-sequence <(λ x)> (tab.i) or <(λ)(x)> (tab.s).
	tab := s.reduceTable(list2)
	// The caller's slice is left untouched: the parent split still walks it
	// (with the original, unreduced sequences) for reassignment. The
	// reduced sequences escape into deeper partitions, so the packer copies
	// them into fresh arrays shared by the whole partition; their staging
	// is arena memory.
	pk := &s.pack
	pk.Reset()
	ats := s.reducedAt[:0]
	for _, mb := range members {
		cs := mb.cs
		// The minimum point is λ's leftmost occurrence, which the scan that
		// filed cs into this partition recorded.
		minTrans := int(cs.TNoAt(mb.at)) - 1
		if !cs.Transaction(minTrans).Has(lambda) {
			return nil, fmt.Errorf("core: malformed database: customer cid=%d was assigned to the partition of item %d but does not contain it (itemsets must be sorted ascending and duplicate-free; construct customer sequences with seq.NewCustomerSeq)", cs.CID, lambda)
		}
		pk.Begin(cs.CID)
		// The removal rules of §3.1 apply to items right of the minimum
		// point only; earlier transactions are carried over unchanged (they
		// cannot match any pattern starting with λ, but the paper's Table 7
		// keeps them and they are harmless).
		for t := 0; t < minTrans; t++ {
			pk.AddTransaction(cs.Transaction(t))
			pk.EndTransaction()
		}
		for t := minTrans; t < cs.NTrans(); t++ {
			tr := cs.Transaction(t)
			hasLambda := tr.Has(lambda)
			for _, x := range tr {
				keep := false
				switch {
				case x == lambda:
					keep = true
				case t == minTrans:
					// Condition 1 holds (the minimum point's transaction
					// contains λ), condition 2 does not: x survives only
					// through the itemset form, which also requires x > λ.
					keep = x > lambda && tab.i[x] != 0
				case hasLambda:
					// Both conditions hold: either form keeps x alive.
					keep = tab.s[x] != 0 || (x > lambda && tab.i[x] != 0)
				default:
					// Condition 1 fails: only the sequence form applies.
					keep = tab.s[x] != 0
				}
				if keep {
					pk.Add(x)
				}
			}
			pk.EndTransaction()
		}
		if pk.Len() < 3 {
			pk.Discard()
			continue
		}
		pk.Commit()
		// λ is the first item the minimum point's transaction keeps, and
		// the transactions before it are unchanged: the reduced member's
		// matching point is where that transaction starts.
		ats = append(ats, int(cs.TransStart(minTrans)))
	}
	s.reducedAt = ats
	seqs := pk.Pack()
	out := make([]member, len(seqs))
	for i := range seqs {
		out[i] = member{cs: &seqs[i], at: ats[i]}
	}
	return out, nil
}

// sortPatternList sorts patterns ascending in place (defensive helper for
// the bi-level list construction).
func sortPatternList(ps []seq.Pattern) {
	sort.Slice(ps, func(i, j int) bool { return seq.Compare(ps[i], ps[j]) < 0 })
}
