package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/disc-mining/disc/internal/checkpoint"
	"github.com/disc-mining/disc/internal/core"
	"github.com/disc-mining/disc/internal/data"
	"github.com/disc-mining/disc/internal/faultinject"
	"github.com/disc-mining/disc/internal/jobs"
	"github.com/disc-mining/disc/internal/mining"
	"github.com/disc-mining/disc/internal/obs"
)

// ErrCoordinatorCrash is what Mine returns when the CoordinatorCrash
// fault point fires: the in-process stand-in for the coordinator dying
// at a ledger transition. The shard ledger is frozen at its persisted
// state, exactly as a real kill -9 would leave it.
var ErrCoordinatorCrash = errors.New("cluster: injected coordinator crash (drill; shard ledger preserved on disk)")

// Config shapes a Coordinator.
type Config struct {
	// Peers are statically configured worker base URLs (always eligible;
	// no heartbeat required). Workers may also self-register over
	// HandleRegister and stay eligible while heartbeating.
	Peers []string
	// Shards fixes the shard count per job; 0 means one shard per live
	// worker at dispatch time (at least one). A job resuming from a
	// persisted ledger keeps the ledger's shard count regardless — its
	// recorded partitions were hashed with it.
	Shards int
	// ShardTimeout bounds one dispatch attempt of one shard (default 5
	// minutes). A shard hitting it is rescheduled from its accumulated
	// checkpoint, so a slow worker costs time, not completed work.
	ShardTimeout time.Duration
	// Retries is how many times a failed shard attempt is rescheduled
	// before the coordinator mines the shard locally (default 3).
	Retries int
	// HeartbeatTTL is how long a self-registered worker stays eligible
	// after its last heartbeat (default 30s). A worker whose TTL expires
	// while it holds a dispatched shard has that attempt canceled and the
	// shard rescheduled immediately.
	HeartbeatTTL time.Duration
	// Cooldown is the base backoff of an open circuit breaker (default
	// 10s); consecutive trips double it, jittered, up to
	// BreakerMaxBackoff.
	Cooldown time.Duration
	// BreakerFailures is how many consecutive transport failures open a
	// worker's circuit breaker (default 3). Typed worker errors — the
	// worker answered, the mining failed — get twice the grace.
	BreakerFailures int
	// BreakerMaxBackoff caps the open-circuit backoff (default 2m).
	BreakerMaxBackoff time.Duration
	// HedgeQuantile enables hedged dispatch: once a shard attempt
	// outlives this quantile of the fleet's observed dispatch latencies,
	// a second attempt is sent to another worker and the first valid
	// reply wins. 0 disables hedging.
	HedgeQuantile float64
	// HedgeMinDelay floors the hedge delay (default 1s) — also the delay
	// used before any latency has been observed.
	HedgeMinDelay time.Duration
	// HedgeBudget bounds speculative dispatches per job (0 = one per
	// shard; negative disables).
	HedgeBudget int
	// LedgerDir, when set, persists a per-job shard ledger at every shard
	// state transition. A restarted coordinator recovers interrupted jobs
	// from it (see Recover) and schedules only their unfinished shards.
	LedgerDir string
	// FS is the filesystem ledger writes, removals and quarantine renames
	// go through (nil = the real filesystem). Fault drills plug in
	// faultinject.Injector.FS here.
	FS checkpoint.FS
	// DegradeAfter is how many consecutive ledger write failures switch
	// the coordinator into degraded-durability mode: scheduling and
	// mining continue byte-identically, but ledger persistence stops
	// until a probe write succeeds (default 3; negative disables).
	DegradeAfter int
	// DurabilityProbe is how often a degraded coordinator retries one
	// ledger write to see whether the disk recovered (default 15s).
	DurabilityProbe time.Duration
	// StorageRetention is the age beyond which stale ledgers, quarantined
	// files and .tmp staging files in LedgerDir are reclaimed by
	// StorageGC (0 = keep forever).
	StorageRetention time.Duration
	// Client performs the shard dispatches (default http.DefaultClient;
	// per-attempt contexts carry the timeout, so the client needs none).
	Client *http.Client
	// Secret, when set, authenticates the cluster control plane: the
	// coordinator sends it on every shard dispatch and requires it on
	// /cluster/register. Empty leaves the endpoints open — acceptable
	// only on a trusted network, since a registered URL receives the
	// full job database and its answers are folded into results.
	Secret string
	// Faults arms the coordinator-side injection points and is forwarded
	// to local fallback runs.
	Faults *faultinject.Injector
	// Logf receives operational log lines (nil discards them).
	Logf func(format string, args ...any)
	// Obs is the shared observability handle (nil gets a private one).
	Obs *obs.Observer
}

type peer struct {
	url      string
	static   bool
	lastSeen time.Time
}

// Coordinator splits shardable jobs into first-level-partition shards,
// dispatches them to workers, reschedules failures from their
// checkpoints, and assembles the byte-identical result locally. Its
// Mine method is shaped to plug into jobs.Config.Mine.
type Coordinator struct {
	cfg Config

	mu       sync.Mutex
	peers    map[string]*peer
	next     int // round-robin cursor over the sorted live peer list
	breakers map[string]*breaker

	obs            *obs.Observer
	shards         map[string]*obs.Counter // state -> counter
	hedges         map[string]*obs.Counter // outcome -> counter
	breakerTrans   map[string]*obs.Counter // destination state -> counter
	expired        *obs.Counter
	ledgerWrites   *obs.Counter
	ledgerFailures *obs.Counter
	ledgerResumed  *obs.Counter
	ledgerDur      *obs.Histogram
	shardDur       *obs.Histogram
	workerLat      map[string]*obs.Histogram // worker url -> latency histogram

	// store is the ledger directory's durable-state plane: the
	// degraded-durability latch, quarantine, and retention GC.
	store *checkpoint.Durability
}

// New starts a coordinator over the statically configured peers.
func New(cfg Config) *Coordinator {
	if cfg.ShardTimeout <= 0 {
		cfg.ShardTimeout = 5 * time.Minute
	}
	if cfg.Retries <= 0 {
		cfg.Retries = 3
	}
	if cfg.HeartbeatTTL <= 0 {
		cfg.HeartbeatTTL = 30 * time.Second
	}
	if cfg.Cooldown <= 0 {
		cfg.Cooldown = 10 * time.Second
	}
	if cfg.BreakerFailures <= 0 {
		cfg.BreakerFailures = 3
	}
	if cfg.BreakerMaxBackoff <= 0 {
		cfg.BreakerMaxBackoff = 2 * time.Minute
	}
	if cfg.HedgeMinDelay <= 0 {
		cfg.HedgeMinDelay = time.Second
	}
	if cfg.Client == nil {
		cfg.Client = http.DefaultClient
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if cfg.FS == nil {
		cfg.FS = checkpoint.OS
	}
	o := cfg.Obs
	if o == nil {
		o = obs.NewObserver()
	}
	c := &Coordinator{cfg: cfg, peers: map[string]*peer{}, obs: o,
		breakers:  map[string]*breaker{},
		workerLat: map[string]*obs.Histogram{}}
	for _, u := range cfg.Peers {
		c.peers[u] = &peer{url: u, static: true}
	}
	r := o.Registry
	c.shards = map[string]*obs.Counter{}
	for _, state := range []string{"done", "failed", "retried", "local", "resumed"} {
		c.shards[state] = r.Counter("disc_cluster_shards_total",
			"Shard dispatch outcomes: done (a worker finished it), retried (an attempt failed and the shard was rescheduled), local (workers exhausted, mined by the coordinator), resumed (restored as done from a persisted ledger), failed (gave up).",
			obs.Label{Key: "state", Value: state})
	}
	c.hedges = map[string]*obs.Counter{}
	for _, outcome := range []string{"launched", "won", "primary"} {
		c.hedges[outcome] = r.Counter("disc_cluster_hedges_total",
			"Hedged shard dispatches: launched (a speculative second attempt was sent), won (the hedge's reply was used), primary (the primary still won the race).",
			obs.Label{Key: "outcome", Value: outcome})
	}
	c.breakerTrans = map[string]*obs.Counter{}
	for _, state := range []string{"closed", "half-open", "open"} {
		c.breakerTrans[state] = r.Counter("disc_cluster_breaker_transitions_total",
			"Circuit-breaker state transitions, by destination state.",
			obs.Label{Key: "to", Value: state})
	}
	c.expired = r.Counter("disc_cluster_expired_dispatches_total",
		"Dispatch attempts canceled because the worker's heartbeat TTL expired while it held the shard.")
	c.ledgerWrites = r.Counter("disc_cluster_ledger_writes_total",
		"Durable shard-ledger writes (one per shard state transition).")
	c.ledgerFailures = r.Counter("disc_cluster_ledger_write_failures_total",
		"Durable shard-ledger writes that failed (disk full, torn write, sync error).")
	c.ledgerResumed = r.Counter("disc_cluster_ledger_resumed_shards_total",
		"Shards restored as already done from a persisted shard ledger after a coordinator restart.")
	c.store = checkpoint.NewDurability("cluster", checkpoint.KindLedger, cfg.LedgerDir,
		checkpoint.Policy{FS: cfg.FS, DegradeAfter: cfg.DegradeAfter, Probe: cfg.DurabilityProbe,
			Retention: cfg.StorageRetention},
		cfg.Logf, r)
	c.ledgerDur = r.Histogram("disc_cluster_ledger_write_seconds",
		"Latency of one atomic shard-ledger write.", obs.DurationBuckets)
	c.shardDur = r.Histogram("disc_cluster_shard_duration_seconds",
		"Wall time of one shard from first dispatch to completion.", obs.DurationBuckets)
	r.GaugeFunc("disc_cluster_workers", "Workers currently eligible for shard dispatch.",
		func() float64 { return float64(len(c.Workers())) })
	return c
}

// Register makes a worker eligible for dispatch (idempotent; also the
// heartbeat — each call refreshes the TTL).
func (c *Coordinator) Register(url string) {
	c.mu.Lock()
	p, ok := c.peers[url]
	if !ok {
		p = &peer{url: url}
		c.peers[url] = p
		c.cfg.Logf("cluster: worker %s registered", url)
	}
	p.lastSeen = time.Now()
	c.mu.Unlock()
	c.pruneExpired()
}

// pruneGraceFactor is how many heartbeat TTLs a self-registered worker
// stays known (though ineligible) after its last heartbeat before its
// peer entry, breaker and per-worker metric series are removed. The
// grace beyond the eligibility TTL keeps watchExpiry's in-flight
// cancellation the first responder to a death; pruning is the janitor
// behind it.
const pruneGraceFactor = 2

// pruneExpired removes self-registered workers whose heartbeat lapsed
// more than pruneGraceFactor×HeartbeatTTL ago: the peer entry, its
// circuit breaker, its latency-histogram cache, and — the part that
// keeps a churning fleet's registry cardinality bounded — its
// disc_cluster_breaker_state and disc_cluster_worker_latency_seconds
// series. A pruned worker that comes back simply re-registers and gets
// fresh ones.
//
// Called from the mutation paths (Register, pickWorker), never from
// Workers(): the disc_cluster_workers gauge invokes Workers() while
// the registry lock is held, and Unregister takes that same lock.
// Registry calls happen strictly after c.mu is released (the
// registry→c.mu lock order is fixed by the render path; see latency).
func (c *Coordinator) pruneExpired() {
	now := time.Now()
	grace := pruneGraceFactor * c.cfg.HeartbeatTTL
	var victims []string
	c.mu.Lock()
	for url, p := range c.peers {
		if p.static || now.Sub(p.lastSeen) < grace {
			continue
		}
		delete(c.peers, url)
		delete(c.breakers, url)
		delete(c.workerLat, url)
		victims = append(victims, url)
	}
	c.mu.Unlock()
	for _, url := range victims {
		c.obs.Registry.Unregister("disc_cluster_breaker_state",
			obs.Label{Key: "worker", Value: url})
		c.obs.Registry.Unregister("disc_cluster_worker_latency_seconds",
			obs.Label{Key: "worker", Value: url})
		c.cfg.Logf("cluster: worker %s pruned after %s without a heartbeat; its metric series are unregistered", url, grace)
	}
}

// HandleRegister is POST /cluster/register: a worker announcing itself,
// repeated periodically as a heartbeat. With a configured Secret the
// request must prove fleet membership — an unauthenticated registration
// would otherwise hand the full job database to an arbitrary URL and
// trust the partitions it returns.
func (c *Coordinator) HandleRegister(rw http.ResponseWriter, r *http.Request) {
	if !authorized(c.cfg.Secret, r) {
		writeJSON(rw, http.StatusUnauthorized,
			ShardResponse{Error: &jobs.WireError{Kind: "auth", Message: "missing or wrong cluster secret"}})
		return
	}
	var reg registration
	if err := json.NewDecoder(http.MaxBytesReader(rw, r.Body, 1<<16)).Decode(&reg); err != nil || reg.URL == "" {
		writeJSON(rw, http.StatusBadRequest,
			ShardResponse{Error: &jobs.WireError{Kind: "input", Message: "registration needs a url"}})
		return
	}
	c.Register(reg.URL)
	rw.WriteHeader(http.StatusNoContent)
}

// writeJSON answers a registration request.
func writeJSON(rw http.ResponseWriter, code int, v any) {
	rw.Header().Set("Content-Type", "application/json")
	rw.WriteHeader(code)
	json.NewEncoder(rw).Encode(v)
}

// Workers lists the currently eligible worker URLs, sorted: static peers
// always, self-registered ones while their heartbeat TTL holds.
func (c *Coordinator) Workers() []string {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []string
	for _, p := range c.peers {
		if p.static || now.Sub(p.lastSeen) < c.cfg.HeartbeatTTL {
			out = append(out, p.url)
		}
	}
	sort.Strings(out)
	return out
}

// pickWorker selects the next eligible worker round-robin, skipping ones
// already tried for this shard attempt cycle and ones whose circuit
// breaker denies dispatch. Returns "" when none qualifies.
func (c *Coordinator) pickWorker(tried map[string]bool) string {
	c.pruneExpired()
	live := c.Workers()
	if len(live) == 0 {
		return ""
	}
	now := time.Now()
	// Resolve breakers before taking c.mu: creation touches the registry,
	// which must never nest inside c.mu (see latency). The breaker mutex
	// itself is a leaf lock, safe to take under c.mu during selection.
	brs := make(map[string]*breaker, len(live))
	for _, u := range live {
		if !tried[u] {
			brs[u] = c.breakerFor(u)
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	// The first pass honors breakers; the second ignores them — a tripped
	// worker is still better than none when every circuit is open.
	for _, honor := range []bool{true, false} {
		for i := 0; i < len(live); i++ {
			u := live[(c.next+i)%len(live)]
			if tried[u] {
				continue
			}
			if honor && !brs[u].allow(now) {
				continue
			}
			c.next = (c.next + i + 1) % len(live)
			return u
		}
	}
	return ""
}

// breakerFor returns the worker's circuit breaker, creating it (and its
// state gauge) on the worker's first contact. Creation follows the
// latency() pattern: the registry call happens outside c.mu because the
// registry's render paths invoke gauge fns that take c.mu. The breaker's
// onChange hook touches only pre-created counters and the log, never a
// lock above it.
func (c *Coordinator) breakerFor(url string) *breaker {
	c.mu.Lock()
	b, ok := c.breakers[url]
	c.mu.Unlock()
	if ok {
		return b
	}
	nb := newBreaker(c.cfg.BreakerFailures, c.cfg.Cooldown, c.cfg.BreakerMaxBackoff)
	nb.onChange = func(from, to breakerState) {
		c.breakerTrans[to.String()].Inc()
		c.cfg.Logf("cluster: breaker for %s: %s -> %s", url, from, to)
	}
	c.mu.Lock()
	if cur, ok := c.breakers[url]; ok {
		b = cur
	} else {
		c.breakers[url] = nb
		b = nb
	}
	c.mu.Unlock()
	if b == nb {
		c.obs.Registry.GaugeFunc("disc_cluster_breaker_state",
			"Per-worker circuit breaker state: 0 closed, 1 half-open, 2 open.",
			func() float64 { return float64(nb.current()) },
			obs.Label{Key: "worker", Value: url})
	}
	return b
}

// latency returns the per-worker dispatch latency histogram, creating it
// on the worker's first dispatch.
//
// The registry call must happen outside c.mu: the registry's render
// paths (WriteText/Snapshot) hold the registry lock while invoking the
// disc_cluster_workers gauge fn, which takes c.mu — creating the
// histogram while holding c.mu takes the two locks in the opposite
// order and deadlocks against a concurrent /metrics scrape. Registry
// instruments are get-or-create by (name, labels), so two racing
// creators receive the same histogram and the cache store is idempotent.
func (c *Coordinator) latency(url string) *obs.Histogram {
	c.mu.Lock()
	h, ok := c.workerLat[url]
	c.mu.Unlock()
	if ok {
		return h
	}
	h = c.obs.Registry.Histogram("disc_cluster_worker_latency_seconds",
		"Shard dispatch round-trip latency, by worker.",
		obs.DurationBuckets, obs.Label{Key: "worker", Value: url})
	c.mu.Lock()
	c.workerLat[url] = h
	c.mu.Unlock()
	return h
}

// shardAcc accumulates one shard's completed partitions across dispatch
// attempts, deduplicating by partition key (a retried shard re-ships
// what its predecessor completed, and a hedge race could deliver the
// same partition twice). Owned by the shard's runShard goroutine; never
// shared.
type shardAcc struct {
	seen  map[string]bool
	parts []checkpoint.Partition
}

// fold merges freshly received partitions, recording each new one into
// the job's checkpointer (so periodic snapshots persist cluster
// progress). Returns how many were new.
func (a *shardAcc) fold(parts []checkpoint.Partition, cp *core.Checkpointer) int {
	fresh := 0
	for _, p := range parts {
		k := p.Key.Key()
		if a.seen[k] {
			continue
		}
		a.seen[k] = true
		a.parts = append(a.parts, p)
		if cp != nil {
			cp.RecordPartition(p)
		}
		fresh++
	}
	return fresh
}

// snapshotParts copies the accumulated partitions for handoff to the
// ledger (whose writer goroutine must not alias the accumulator).
func snapshotParts(a *shardAcc) []checkpoint.Partition {
	return append([]checkpoint.Partition(nil), a.parts...)
}

// jobRun carries the per-job scheduling state shared by the shard
// goroutines: the durable ledger handle, the hedge budget, and the
// injected-crash switch.
type jobRun struct {
	led        *jobLedger
	hedgesLeft atomic.Int64
	abort      context.CancelFunc
	crashed    atomic.Bool
}

func (r *jobRun) takeHedge() bool { return r.hedgesLeft.Add(-1) >= 0 }
func (r *jobRun) giveHedge()      { r.hedgesLeft.Add(1) }

// crashPoint fires the CoordinatorCrash drill at a ledger transition
// site: freeze the ledger at its persisted state, cancel the job's
// other shard goroutines, and surface ErrCoordinatorCrash — the closest
// an in-process test can get to kill -9 between two scheduler actions.
func (c *Coordinator) crashPoint(run *jobRun, site string) error {
	if run.led == nil || !c.cfg.Faults.Fire(faultinject.CoordinatorCrash, site) {
		return nil
	}
	c.cfg.Logf("cluster: injected coordinator crash at %s", site)
	run.crashed.Store(true)
	run.led.kill()
	run.abort()
	return ErrCoordinatorCrash
}

// Mine distributes one job across the fleet and returns a result
// byte-identical to a local run. It has the jobs.Config.Mine shape: the
// manager keeps admission, dedup, deadlines, containment and
// checkpoint persistence; this replaces only the mining itself.
//
// Non-shardable algorithms, resource-budgeted jobs and an empty fleet
// fall back to an ordinary local run. Budgets (MaxPatterns/MaxMemBytes)
// are job-global counters: a sharded run would make each worker enforce
// the full budget against its own shard, letting a clustered job mine
// up to shards×budget or fail where a local run would not — so budgeted
// jobs keep the byte-identical contract by never sharding. Otherwise
// the job splits into shards; each shard is dispatched with the shard's
// accumulated partitions as resume state, failed or timed-out attempts
// are rescheduled (costing only un-checkpointed work), and a shard that
// exhausts its retries is mined locally. The final local assembly run
// restores every collected partition and merges them in ascending key
// order — the same merge an uninterrupted local run performs.
//
// With LedgerDir configured every shard state transition is persisted
// first, so a coordinator killed at any instant restarts, finds the
// ledger, and (via Recover or an identical resubmission) re-runs only
// the unfinished shards — still byte-identical, because done shards'
// partitions are restored from the ledger and the assembly merge is
// order-independent of who mined what.
func (c *Coordinator) Mine(ctx context.Context, req jobs.Request, cp *core.Checkpointer) (*mining.Result, error) {
	workers := c.Workers()
	budgeted := req.Opts.MaxPatterns > 0 || req.Opts.MaxMemBytes > 0
	if !shardable(req.Algo) || budgeted || len(workers) == 0 {
		switch {
		case !shardable(req.Algo):
			// Quiet: the baselines always run locally, nothing to report.
		case budgeted:
			c.cfg.Logf("cluster: job has a resource budget, mining %s locally (budgets are job-global; shards would each enforce their own)", req.Algo)
		default:
			c.cfg.Logf("cluster: no live workers, mining %s locally", req.Algo)
		}
		res, err := c.mineWith(ctx, req, cp, nil)
		if err == nil && c.cfg.LedgerDir != "" && shardable(req.Algo) {
			// A ledger left behind by a clustered incarnation of this job
			// is satisfied by the local result; retire it so restarts stop
			// resubmitting a finished job.
			fp := req.JobFingerprint()
			if c.cfg.FS.Remove(LedgerPath(c.cfg.LedgerDir, fp)) == nil {
				c.cfg.Logf("cluster: job %016x finished locally; its shard ledger is retired", fp)
			}
		}
		return res, err
	}
	shards := c.cfg.Shards
	if shards <= 0 {
		shards = len(workers)
	}

	// The database is rendered once per job; the ledger and every shard
	// dispatch share this one string.
	var dbText strings.Builder
	if err := data.Write(&dbText, req.DB, data.Native); err != nil {
		return nil, fmt.Errorf("cluster: encoding database: %w", err)
	}
	db := dbText.String()
	fp := req.JobFingerprint()

	// mctx lets an injected coordinator crash stop the job's other shard
	// goroutines the way a real process death would.
	mctx, mcancel := context.WithCancel(ctx)
	defer mcancel()
	run := &jobRun{abort: mcancel}
	var doneShards map[int]bool
	run.led, shards, doneShards = c.openLedger(req, fp, shards, db)
	budget := int64(c.cfg.HedgeBudget)
	if budget == 0 {
		budget = int64(shards)
	}
	run.hedgesLeft.Store(budget)

	// Pre-seed each shard's accumulator with the partitions a previous
	// incarnation of this job already collected — from the job checkpoint
	// (manager-level crash-resume) and from the ledger's per-shard
	// partition snapshots (coordinator-level crash-resume). Those shards'
	// workers restore them instead of re-mining.
	accs := make([]*shardAcc, shards)
	for i := range accs {
		accs[i] = &shardAcc{seen: map[string]bool{}}
	}
	var restored []checkpoint.Partition
	if cp != nil {
		restored = cp.RestoredPartitions()
	}
	for _, p := range restored {
		a := accs[core.ShardOf(p.Key, shards)]
		k := p.Key.Key()
		if !a.seen[k] {
			a.seen[k] = true
			a.parts = append(a.parts, p)
		}
	}
	for i, parts := range run.led.shardParts() {
		accs[i].fold(parts, cp)
	}

	// No budgets travel with the shards: budgeted jobs took the local
	// path above, so request budgets here are always zero and workers
	// apply only their own protective limits.
	base := ShardRequest{
		Algo: req.Algo, MinSup: req.MinSup,
		BiLevel: req.Opts.BiLevel, Levels: req.Opts.Levels, Gamma: req.Opts.Gamma,
		Workers: req.Opts.Workers,
		Shards:  shards, Fingerprint: Fingerprint(fp), DB: db,
	}

	errs := make([]error, shards)
	var wg sync.WaitGroup
	for idx := 0; idx < shards; idx++ {
		if doneShards[idx] {
			c.shards["resumed"].Inc()
			continue
		}
		wg.Add(1)
		go func(idx int) {
			defer wg.Done()
			errs[idx] = c.runShard(mctx, base, idx, fp, accs[idx], req, cp, run)
		}(idx)
	}
	wg.Wait()
	if run.crashed.Load() {
		return nil, ErrCoordinatorCrash
	}
	for idx, err := range errs {
		if err != nil {
			c.shards["failed"].Inc()
			return nil, fmt.Errorf("cluster: shard %d/%d: %w", idx, shards, err)
		}
	}

	// Assembly: restore every collected partition locally. The level-0
	// scan and the ascending-key merge are all that executes here, and
	// the engine self-heals any partition nobody shipped by mining it.
	var all []checkpoint.Partition
	for _, a := range accs {
		all = append(all, a.parts...)
	}
	asm := core.ResumeFrom(&checkpoint.File{
		Algo: req.Algo, Fingerprint: fp, MinSup: req.MinSup, Partitions: all,
	})
	res, err := c.mineWith(ctx, req, asm, nil)
	if err != nil {
		return nil, err
	}
	run.led.retire()
	c.cfg.Logf("cluster: job %016x assembled from %d shards, %d partitions", fp, shards, len(all))
	return res, nil
}

// runShard drives one shard to completion: dispatch (hedged when the
// attempt drags), fold the returned checkpoint, reschedule on failure,
// and fall back to a local shard run when workers are exhausted. Every
// state transition lands in the job ledger before the next action.
func (c *Coordinator) runShard(ctx context.Context, base ShardRequest, idx int, fp uint64,
	acc *shardAcc, req jobs.Request, cp *core.Checkpointer, run *jobRun) error {
	start := time.Now()
	// The shard span brackets everything this shard costs the job —
	// every dispatch attempt, hedge race and reschedule — and is the
	// parent the winning worker's spans hang under in the assembled
	// timeline. Scheduling decisions land as structured events on the
	// job's flight recorder.
	tc := req.Trace
	sp := c.obs.WithTrace(tc, req.ParentSpan).Span("shard")
	defer sp.End()
	shard := fmt.Sprint(idx)
	tried := map[string]bool{}
	var lastErr error
	for attempt := 0; attempt <= c.cfg.Retries; attempt++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		url := c.pickWorker(tried)
		if url == "" {
			// Every live worker tried this cycle; start over (the failed
			// ones may have recovered) rather than giving up early.
			tried = map[string]bool{}
			if url = c.pickWorker(tried); url == "" {
				break // fleet emptied under us
			}
		}
		tried[url] = true
		run.led.assign(idx, url)
		tc.Event("shard-assign", sp.ID(), map[string]string{
			"shard": shard, "worker": url, "attempt": fmt.Sprint(attempt + 1)})
		if err := c.crashPoint(run, fmt.Sprintf("assign-%d", idx)); err != nil {
			return err
		}

		winner, err := c.attemptShard(ctx, base, idx, fp, acc, cp, url, tried, run, tc, sp.ID())
		if err != nil {
			c.shards["retried"].Inc()
			run.led.resolve(idx, winner, outcomeFor(err), snapshotParts(acc))
			tc.Event("shard-resolve", sp.ID(), map[string]string{
				"shard": shard, "worker": winner, "outcome": outcomeFor(err)})
			c.cfg.Logf("cluster: shard %d/%d attempt %d on %s failed: %v (rescheduling from %d partitions)",
				idx, base.Shards, attempt+1, winner, err, len(acc.parts))
			lastErr = err
			continue
		}
		run.led.done(idx, winner, snapshotParts(acc))
		tc.Event("shard-resolve", sp.ID(), map[string]string{
			"shard": shard, "worker": winner, "outcome": "done"})
		c.shards["done"].Inc()
		c.shardDur.Observe(time.Since(start).Seconds())
		if err := c.crashPoint(run, fmt.Sprintf("done-%d", idx)); err != nil {
			return err
		}
		return nil
	}

	// Workers exhausted: mine the shard here, resuming from whatever the
	// fleet completed. Correctness never depends on the fleet.
	c.cfg.Logf("cluster: shard %d/%d exhausted retries (last: %v), mining locally", idx, base.Shards, lastErr)
	run.led.assign(idx, "(local)")
	tc.Event("shard-assign", sp.ID(), map[string]string{
		"shard": shard, "worker": "(local)", "attempt": "fallback"})
	local := core.ResumeFrom(&checkpoint.File{
		Algo: req.Algo, Fingerprint: fp, MinSup: req.MinSup, Partitions: acc.parts,
	})
	spec := &core.ShardSpec{Index: idx, Count: base.Shards}
	// The local fallback's engine spans parent under this shard's span,
	// not the job root — the timeline should show the shard absorbing
	// the cost.
	lreq := req
	lreq.ParentSpan = sp.ID()
	if _, err := c.mineWith(ctx, lreq, local, spec); err != nil {
		return err
	}
	acc.fold(local.File(req.Algo, req.MinSup, fp).Partitions, cp)
	run.led.done(idx, "(local)", snapshotParts(acc))
	tc.Event("shard-resolve", sp.ID(), map[string]string{
		"shard": shard, "worker": "(local)", "outcome": "done"})
	c.shards["local"].Inc()
	c.shardDur.Observe(time.Since(start).Seconds())
	return nil
}

// outcomeFor condenses an attempt error into a whitespace-free ledger
// token for the shard's attempt history.
func outcomeFor(err error) string {
	var we *jobs.WireError
	if errors.As(err, &we) {
		return "worker-" + we.Kind
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return "timeout-or-canceled"
	}
	return "transport-error"
}

// attemptShard drives one scheduling attempt of one shard: the primary
// dispatch, plus — once the attempt outlives the fleet's latency
// quantile and budget allows — one hedged dispatch to another worker.
// The first valid reply wins, the loser's context is canceled, and only
// the winner's partitions count (the accumulator's key dedup makes even
// a racing double delivery idempotent). Partial checkpoints from failed
// replies fold into acc so a reschedule resumes, and each reply settles
// the worker's circuit breaker. Returns the worker whose reply won — or,
// with the error, the worker whose failure is being reported.
func (c *Coordinator) attemptShard(ctx context.Context, base ShardRequest, idx int, fp uint64,
	acc *shardAcc, cp *core.Checkpointer, primary string, tried map[string]bool, run *jobRun,
	tc *obs.TraceContext, spid obs.SpanID) (string, error) {
	actx, cancelAll := context.WithCancel(ctx)
	defer cancelAll() // the loser of a hedge race is canceled here

	type reply struct {
		url   string
		parts []checkpoint.Partition
		resp  *ShardResponse // nil when the attempt got no reply
		err   error
		kind  failKind
	}
	// Capacity 2: both attempts can always deliver without a reader — the
	// loser's reply is simply never received, and no goroutine leaks.
	replies := make(chan reply, 2)
	launch := func(url string) {
		// The resume snapshot is rendered here, in the select-loop
		// goroutine, because acc may gain partitions between launches.
		resume, err := encodeResume(base, idx, fp, acc)
		if err != nil {
			replies <- reply{url: url, err: err, kind: failWorker}
			return
		}
		go func() {
			resp, err := c.dispatch(actx, url, base, idx, resume, tc, spid)
			if err != nil {
				replies <- reply{url: url, err: err, kind: failTransport}
				return
			}
			parts, err := vetResponse(resp, url, fp)
			replies <- reply{url: url, parts: parts, resp: resp, err: err, kind: failWorker}
		}()
	}
	launch(primary)
	inflight := 1
	hedgedTo := ""

	var hedgeC <-chan time.Time
	if delay, ok := c.hedgeDelay(run); ok {
		t := time.NewTimer(delay)
		defer t.Stop()
		hedgeC = t.C
	}

	var firstErr error
	firstURL := primary
	for {
		select {
		case <-hedgeC:
			hedgeC = nil
			if !run.takeHedge() {
				run.giveHedge()
				continue
			}
			url := c.pickWorker(tried)
			if url == "" {
				run.giveHedge()
				continue
			}
			tried[url] = true
			hedgedTo = url
			inflight++
			c.hedges["launched"].Inc()
			tc.Event("shard-hedge", spid, map[string]string{
				"shard": fmt.Sprint(idx), "worker": url, "primary": primary})
			c.cfg.Logf("cluster: shard %d/%d hedged to %s (%s is past the fleet's latency quantile)",
				idx, base.Shards, url, primary)
			launch(url)
		case r := <-replies:
			inflight--
			// Even a failed reply may carry a partial checkpoint — and the
			// worker-side span records of the attempt, which belong in the
			// timeline whether the attempt won or not.
			if len(r.parts) > 0 {
				acc.fold(r.parts, cp)
			}
			if r.resp != nil {
				tc.AddRemoteSpans(r.resp.Spans)
				tc.AddRemoteDropped(r.resp.Dropped)
			}
			if r.err == nil {
				br := c.breakerFor(r.url)
				pre := br.current()
				br.onSuccess()
				c.noteBreaker(tc, spid, r.url, pre, br.current())
				switch {
				case hedgedTo == "":
				case r.url == hedgedTo:
					c.hedges["won"].Inc()
				default:
					c.hedges["primary"].Inc()
				}
				return r.url, nil
			}
			br := c.breakerFor(r.url)
			pre := br.current()
			br.onFailure(r.kind, time.Now())
			c.noteBreaker(tc, spid, r.url, pre, br.current())
			if firstErr == nil {
				firstErr, firstURL = r.err, r.url
			}
			if inflight == 0 {
				return firstURL, firstErr
			}
			c.cfg.Logf("cluster: shard %d/%d attempt on %s failed (%v); awaiting the hedge",
				idx, base.Shards, r.url, r.err)
		case <-ctx.Done():
			return primary, ctx.Err()
		}
	}
}

// noteBreaker records a breaker state change caused by one settled
// reply as a trace event. The before/after read brackets only this
// caller's settle call; a concurrent transition simply lands as its own
// caller's event.
func (c *Coordinator) noteBreaker(tc *obs.TraceContext, spid obs.SpanID, url string, from, to breakerState) {
	if tc == nil || from == to {
		return
	}
	tc.Event("breaker-transition", spid, map[string]string{
		"worker": url, "from": from.String(), "to": to.String()})
}

// hedgeDelay decides whether this attempt may hedge and after how long:
// the configured quantile over the union of every worker's observed
// dispatch latencies, floored by HedgeMinDelay.
func (c *Coordinator) hedgeDelay(run *jobRun) (time.Duration, bool) {
	if c.cfg.HedgeQuantile <= 0 || run.hedgesLeft.Load() <= 0 {
		return 0, false
	}
	c.mu.Lock()
	hs := make([]*obs.Histogram, 0, len(c.workerLat))
	for _, h := range c.workerLat {
		hs = append(hs, h)
	}
	c.mu.Unlock()
	d := time.Duration(obs.QuantileAcross(c.cfg.HedgeQuantile, hs...) * float64(time.Second))
	if d < c.cfg.HedgeMinDelay {
		d = c.cfg.HedgeMinDelay
	}
	return d, true
}

// vetResponse validates one worker reply. It returns the partitions of
// the reply's checkpoint (even alongside a typed worker error — partial
// progress is progress) and the error the attempt should report: the
// worker's typed error, or a checkpoint-validation failure on a success
// response whose work never actually arrived (silently counting that
// done would quietly degrade the shard to local re-mining at assembly).
func vetResponse(resp *ShardResponse, url string, fp uint64) ([]checkpoint.Partition, error) {
	var parts []checkpoint.Partition
	var cpErr error
	if resp.Checkpoint != "" {
		switch f, derr := decodeCheckpoint(resp.Checkpoint); {
		case derr != nil:
			cpErr = fmt.Errorf("undecodable checkpoint from %s: %w", url, derr)
		case f.Fingerprint != fp:
			cpErr = fmt.Errorf("checkpoint from %s has fingerprint %016x, job is %016x", url, f.Fingerprint, fp)
		default:
			parts = f.Partitions
		}
	} else if resp.Error == nil {
		cpErr = fmt.Errorf("success response from %s carried no checkpoint", url)
	}
	if resp.Error != nil {
		return parts, resp.Error
	}
	return parts, cpErr
}

// encodeResume renders the shard's accumulated partitions as the
// dispatch's resume checkpoint ("" when there is nothing to resume).
func encodeResume(base ShardRequest, idx int, fp uint64, acc *shardAcc) (string, error) {
	if len(acc.parts) == 0 {
		return "", nil
	}
	return encodeCheckpoint(&checkpoint.File{
		Algo: base.Algo, Fingerprint: fp, MinSup: base.MinSup,
		Shard: idx, ShardCount: base.Shards, Partitions: acc.parts,
	})
}

// maxResponseBytes caps one worker reply.
const maxResponseBytes = 1 << 30

// dispatch performs one shard attempt against one worker. The request
// frame streams the job's database string as it is, with no copy per
// dispatch. A bound trace rides along as headers: the trace ID and the
// coordinator-side shard span the worker should parent its spans under.
func (c *Coordinator) dispatch(ctx context.Context, url string, base ShardRequest,
	idx int, resume string, tc *obs.TraceContext, spid obs.SpanID) (*ShardResponse, error) {
	sreq := base
	sreq.Shard = idx
	sreq.Resume = resume
	body, err := encodeShardRequest(&sreq)
	if err != nil {
		return nil, err
	}

	actx, cancel := context.WithTimeout(ctx, c.cfg.ShardTimeout)
	defer cancel()
	stop := c.watchExpiry(actx, cancel, url)
	defer stop()
	hreq, err := http.NewRequestWithContext(actx, http.MethodPost, url+"/cluster/shard", body.Reader())
	if err != nil {
		return nil, err
	}
	hreq.ContentLength = body.Len()
	// GetBody lets the transport resend the frame when a kept-alive
	// connection turns out to be dead before anything was written.
	hreq.GetBody = func() (io.ReadCloser, error) { return io.NopCloser(body.Reader()), nil }
	hreq.Header.Set("Content-Type", shardContentType)
	setSecret(hreq, c.cfg.Secret)
	if tc != nil {
		hreq.Header.Set(traceIDHeader, tc.TraceID().String())
		hreq.Header.Set(parentSpanHeader, spid.String())
	}
	start := time.Now()
	hres, err := c.cfg.Client.Do(hreq)
	c.latency(url).Observe(time.Since(start).Seconds())
	if err != nil {
		return nil, err
	}
	defer hres.Body.Close()
	resp, err := decodeShardResponse(hres.Body, maxResponseBytes)
	if err != nil {
		// A reply that is not a frame is a transport failure, whatever
		// typed error the decoder phrased it as.
		return nil, fmt.Errorf("decoding worker response (HTTP %d): %v", hres.StatusCode, err)
	}
	if resp.Error == nil && hres.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("worker answered HTTP %d", hres.StatusCode)
	}
	return resp, nil
}

// watchExpiry cancels an in-flight dispatch the moment the worker's
// heartbeat TTL expires: a dead worker's shard must be rescheduled
// immediately on expiry, not after the full shard timeout also passes.
// Static peers have no heartbeat and are never expired. The returned
// stop function ends the watch on the dispatch's normal completion.
func (c *Coordinator) watchExpiry(ctx context.Context, cancel context.CancelFunc, url string) func() {
	c.mu.Lock()
	p, ok := c.peers[url]
	static := !ok || p.static
	c.mu.Unlock()
	if static {
		return func() {}
	}
	done := make(chan struct{})
	var once sync.Once
	stop := func() { once.Do(func() { close(done) }) }
	go func() {
		for {
			c.mu.Lock()
			p, ok := c.peers[url]
			var expiry time.Time
			if ok {
				expiry = p.lastSeen.Add(c.cfg.HeartbeatTTL)
			}
			c.mu.Unlock()
			if !ok {
				// The peer was pruned out from under the dispatch: its
				// heartbeat lapsed past the prune grace, which implies the
				// TTL expired too — cancel exactly as an observed expiry
				// would have.
				c.expired.Inc()
				c.cfg.Logf("cluster: worker %s pruned while holding a shard; canceling the attempt", url)
				cancel()
				return
			}
			d := time.Until(expiry)
			if d <= 0 {
				c.expired.Inc()
				c.cfg.Logf("cluster: worker %s heartbeat TTL expired while holding a shard; canceling the attempt", url)
				cancel()
				return
			}
			// Re-check at the projected expiry: a heartbeat landing in the
			// meantime pushes it out and the timer re-arms.
			t := time.NewTimer(d + 5*time.Millisecond)
			select {
			case <-t.C:
			case <-done:
				t.Stop()
				return
			case <-ctx.Done():
				t.Stop()
				return
			}
		}
	}()
	return stop
}

// mineWith runs the job's algorithm here with the given checkpointer and
// optional shard scope. The run's engine spans carry the request's
// trace (when the manager minted one), parented under whatever span the
// request names — the job root for local fallbacks and assembly, the
// shard span for a shard's local re-mine.
func (c *Coordinator) mineWith(ctx context.Context, req jobs.Request, cp *core.Checkpointer, spec *core.ShardSpec) (*mining.Result, error) {
	opts := req.Opts
	opts.Checkpoint = cp
	opts.Shard = spec
	opts.Faults = c.cfg.Faults
	opts.Obs = c.obs.WithTrace(req.Trace, req.ParentSpan)
	miner, err := localMinerFor(req.Algo, opts)
	if err != nil {
		return nil, err
	}
	return mining.AsContextMiner(miner).MineContext(ctx, req.DB, req.MinSup)
}

// localMinerFor builds the algorithm for coordinator-side runs (the
// disc-all family natively, everything else through the registry — the
// non-shardable baselines reach here on the local fallback path).
func localMinerFor(algo string, opts core.Options) (mining.Miner, error) {
	if shardable(algo) {
		return minerFor(algo, opts)
	}
	return mining.NewRegistered(algo)
}

// Heartbeat runs a worker-side registration loop: announce url to the
// coordinator at coordURL every interval until ctx ends, proving fleet
// membership with secret (empty when the fleet runs open). Errors are
// logged and retried — a worker outliving a coordinator restart
// re-registers on the next beat.
func Heartbeat(ctx context.Context, client *http.Client, coordURL, url, secret string,
	interval time.Duration, logf func(string, ...any)) {
	if client == nil {
		client = http.DefaultClient
	}
	if interval <= 0 {
		interval = 10 * time.Second
	}
	if logf == nil {
		logf = func(string, ...any) {}
	}
	beat := func() {
		body, _ := json.Marshal(registration{URL: url})
		req, err := http.NewRequestWithContext(ctx, http.MethodPost,
			coordURL+"/cluster/register", bytes.NewReader(body))
		if err != nil {
			logf("cluster: heartbeat: %v", err)
			return
		}
		req.Header.Set("Content-Type", "application/json")
		setSecret(req, secret)
		res, err := client.Do(req)
		if err != nil {
			if !errors.Is(err, context.Canceled) {
				logf("cluster: heartbeat to %s failed: %v", coordURL, err)
			}
			return
		}
		if res.StatusCode == http.StatusUnauthorized {
			logf("cluster: heartbeat to %s rejected: wrong or missing cluster secret", coordURL)
		}
		res.Body.Close()
	}
	beat()
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			beat()
		case <-ctx.Done():
			return
		}
	}
}

// Shardable reports whether jobs for algo can be distributed; exported
// for the serving binary's status output.
func Shardable(algo string) bool { return shardable(algo) }

// ShardRetries reports how many shard attempts have been rescheduled so
// far — the observable the fault grids assert on when a worker is
// killed or dropped mid-shard.
func (c *Coordinator) ShardRetries() int { return int(c.shards["retried"].Value()) }

// HedgesLaunched reports how many speculative shard dispatches this
// coordinator has sent — the observable of the straggler-hedge drills.
func (c *Coordinator) HedgesLaunched() int { return int(c.hedges["launched"].Value()) }

// ExpiredDispatches reports how many in-flight dispatches were canceled
// by heartbeat-TTL expiry — the observable of the dead-worker drills.
func (c *Coordinator) ExpiredDispatches() int { return int(c.expired.Value()) }

// ResumedShards reports how many shards were restored as already done
// from a persisted shard ledger — the observable of the
// coordinator-restart drills.
func (c *Coordinator) ResumedShards() int { return int(c.ledgerResumed.Value()) }

// LedgerWriteFailures reports how many ledger writes have failed — the
// observable of the disk-fault drills.
func (c *Coordinator) LedgerWriteFailures() int { return int(c.ledgerFailures.Value()) }

// QuarantinedLedgers reports how many ledgers this coordinator has
// quarantined as undecodable.
func (c *Coordinator) QuarantinedLedgers() int { return int(c.store.Quarantined()) }

// DegradedDurability reports whether ledger persistence is currently
// degraded: repeated write failures suspended it and no probe write has
// succeeded yet. Mining is unaffected — results stay byte-identical —
// but a coordinator crash while degraded recovers from checkpoints
// instead of the ledger.
func (c *Coordinator) DegradedDurability() bool { return c.store.State().Degraded }

// StorageGC runs one scrub+sweep pass over LedgerDir now and, when
// interval is positive, another every interval until the returned stop
// is called: resting ledgers are re-verified (bit-rot is quarantined
// before a recovery would trip over it) and files past StorageRetention
// — stale ledgers, quarantined evidence, .tmp leftovers — are
// reclaimed. An active job's ledger is rewritten at every shard
// transition, so its mtime keeps it clear of any sane retention window.
// The serving binary calls this at startup, after Recover.
func (c *Coordinator) StorageGC(interval time.Duration) (stop func()) {
	return c.store.StartGC(interval)
}
