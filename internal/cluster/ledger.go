package cluster

import (
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/disc-mining/disc/internal/checkpoint"
	"github.com/disc-mining/disc/internal/core"
	"github.com/disc-mining/disc/internal/data"
	"github.com/disc-mining/disc/internal/jobs"
)

// LedgerPath names one job's ledger file inside a ledger directory;
// exported so drills and operational tooling can locate a job's ledger
// by fingerprint.
func LedgerPath(dir string, fp uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%016x.ledger", fp))
}

// jobLedger is the coordinator's handle on one job's durable shard
// ledger. A nil *jobLedger (no LedgerDir configured) is valid and
// records nothing. Every transition persists the whole ledger atomically
// before returning, so the on-disk state is never older than the
// scheduling decision just acted on — the invariant a kill -9 recovery
// depends on.
type jobLedger struct {
	c    *Coordinator
	path string

	mu   sync.Mutex
	l    *checkpoint.Ledger
	dead bool // a simulated coordinator crash froze the ledger (drills)
}

// openLedger loads or creates the job's ledger. A valid prior ledger for
// the same fingerprint wins: its shard count is authoritative (the
// recorded partitions were hashed with it, and a restarted coordinator
// may see a different live-worker count than the crashed one did), its
// done shards are returned so Mine skips dispatching them, and shards
// caught mid-assignment return to pending with an "interrupted" attempt
// on record. Anything else — no file, corrupt file, another job's
// fingerprint — starts a fresh ledger.
func (c *Coordinator) openLedger(req jobs.Request, fp uint64, shards int, dbText string) (*jobLedger, int, map[int]bool) {
	if c.cfg.LedgerDir == "" {
		return nil, shards, nil
	}
	jl := &jobLedger{c: c, path: LedgerPath(c.cfg.LedgerDir, fp)}
	prev, err := checkpoint.ReadLedgerFileFS(c.cfg.FS, jl.path)
	switch {
	case err == nil || errors.Is(err, fs.ErrNotExist):
	case checkpoint.Undecodable(err):
		// Corrupt prior ledger: quarantine it so the fresh one written
		// below takes the name, and the evidence survives for inspection.
		c.store.Quarantine(jl.path, err)
	default:
		c.cfg.Logf("cluster: ignoring unusable ledger %s: %v", jl.path, err)
	}
	if err == nil && prev.Fingerprint == fp && len(prev.Shards) > 0 {
		done := map[int]bool{}
		for i := range prev.Shards {
			s := &prev.Shards[i]
			switch s.State {
			case checkpoint.ShardDone:
				done[i] = true
			case checkpoint.ShardAssigned:
				// Whether the assigned worker finished is unknowable from
				// here; the dedup on fold makes re-dispatch safe either way.
				s.Attempts = append(s.Attempts,
					checkpoint.ShardAttempt{Worker: s.Worker, Outcome: "interrupted"})
				s.State, s.Worker = checkpoint.ShardPending, ""
			}
		}
		jl.l = prev
		c.ledgerResumed.Add(int64(len(done)))
		c.cfg.Logf("cluster: job %016x resumes from its shard ledger: %d/%d shards already done",
			fp, len(done), len(prev.Shards))
		jl.mu.Lock()
		jl.persistLocked()
		jl.mu.Unlock()
		return jl, len(prev.Shards), done
	}
	l := &checkpoint.Ledger{
		Algo: req.Algo, Fingerprint: fp, MinSup: req.MinSup,
		BiLevel: req.Opts.BiLevel, Levels: req.Opts.Levels, Gamma: req.Opts.Gamma,
		Workers: req.Opts.Workers, DB: dbText,
		Shards: make([]checkpoint.LedgerShard, shards),
	}
	for i := range l.Shards {
		l.Shards[i].State = checkpoint.ShardPending
	}
	jl.l = l
	jl.mu.Lock()
	jl.persistLocked()
	jl.mu.Unlock()
	return jl, shards, nil
}

// mutate applies one state transition and persists it. No-op on a nil
// ledger or after a simulated crash froze it.
func (jl *jobLedger) mutate(fn func(l *checkpoint.Ledger)) {
	if jl == nil {
		return
	}
	jl.mu.Lock()
	defer jl.mu.Unlock()
	if jl.dead {
		return
	}
	fn(jl.l)
	jl.persistLocked()
}

func (jl *jobLedger) persistLocked() {
	c := jl.c
	if !c.store.Attempt() {
		return // degraded and no probe due: scheduling continues, ledger off
	}
	start := time.Now()
	if _, err := jl.l.WriteFileFS(c.cfg.FS, jl.path); err != nil {
		c.ledgerFailures.Inc()
		c.store.Failed(err)
		c.cfg.Logf("cluster: ledger write failed: %v (continuing; recovery degrades to checkpoint resume)", err)
		return
	}
	c.store.OK()
	c.ledgerWrites.Inc()
	c.ledgerDur.Observe(time.Since(start).Seconds())
}

// assign marks a shard as held by worker.
func (jl *jobLedger) assign(idx int, worker string) {
	jl.mutate(func(l *checkpoint.Ledger) {
		s := &l.Shards[idx]
		s.State, s.Worker = checkpoint.ShardAssigned, worker
	})
}

// resolve records a failed attempt, returning the shard to pending with
// its partial partitions on record.
func (jl *jobLedger) resolve(idx int, worker, outcome string, parts []checkpoint.Partition) {
	jl.mutate(func(l *checkpoint.Ledger) {
		s := &l.Shards[idx]
		s.State, s.Worker = checkpoint.ShardPending, ""
		s.Attempts = append(s.Attempts, checkpoint.ShardAttempt{Worker: worker, Outcome: outcome})
		s.Partitions = parts
	})
}

// done marks a shard complete with its full partition set.
func (jl *jobLedger) done(idx int, worker string, parts []checkpoint.Partition) {
	jl.mutate(func(l *checkpoint.Ledger) {
		s := &l.Shards[idx]
		s.State, s.Worker = checkpoint.ShardDone, ""
		s.Attempts = append(s.Attempts, checkpoint.ShardAttempt{Worker: worker, Outcome: "done"})
		s.Partitions = parts
	})
}

// kill freezes the ledger at its current on-disk state — the injected
// CoordinatorCrash drill's stand-in for the process dying, so shard
// goroutines still winding down cannot advance what a real kill -9 would
// have frozen.
func (jl *jobLedger) kill() {
	if jl == nil {
		return
	}
	jl.mu.Lock()
	jl.dead = true
	jl.mu.Unlock()
}

// retire removes the ledger once the job's result is assembled: the
// result cache and checkpoints own the job from here.
func (jl *jobLedger) retire() {
	if jl == nil {
		return
	}
	jl.mu.Lock()
	defer jl.mu.Unlock()
	if jl.dead {
		return
	}
	if err := jl.c.cfg.FS.Remove(jl.path); err != nil && !errors.Is(err, fs.ErrNotExist) {
		jl.c.cfg.Logf("cluster: removing ledger: %v", err)
	}
}

// shardParts returns a snapshot of the partitions the ledger holds for
// each shard (nil ledger → nil), for pre-seeding shard accumulators.
func (jl *jobLedger) shardParts() [][]checkpoint.Partition {
	if jl == nil {
		return nil
	}
	jl.mu.Lock()
	defer jl.mu.Unlock()
	out := make([][]checkpoint.Partition, len(jl.l.Shards))
	for i := range jl.l.Shards {
		out[i] = append([]checkpoint.Partition(nil), jl.l.Shards[i].Partitions...)
	}
	return out
}

// Recover scans LedgerDir for the ledgers of interrupted jobs and
// resubmits each through submit (typically jobs.Manager.Submit). The
// ledger is self-contained — database and result-relevant options travel
// inside it — and the fingerprint is recomputed from the decoded request
// before resubmission, so a ledger that disagrees with its own job is
// skipped, never mined. Returns how many jobs were resubmitted; each
// resubmission reaches Mine through the manager, re-opens its ledger
// there, and schedules only the unfinished shards.
func (c *Coordinator) Recover(submit func(jobs.Request) (*jobs.Job, error)) int {
	if c.cfg.LedgerDir == "" {
		return 0
	}
	matches, err := filepath.Glob(filepath.Join(c.cfg.LedgerDir, "*.ledger"))
	if err != nil {
		return 0
	}
	sort.Strings(matches)
	n := 0
	// A ledger no restart could ever use — one that does not decode, or
	// that disagrees with its own job — is quarantined. Leaving it would
	// re-log the same skip on every startup forever.
	for _, path := range matches {
		l, err := checkpoint.ReadLedgerFileFS(c.cfg.FS, path)
		if err != nil {
			if checkpoint.Undecodable(err) {
				c.store.Quarantine(path, err)
			} else {
				c.cfg.Logf("cluster: skipping unreadable ledger %s: %v", path, err)
			}
			continue
		}
		db, err := data.Read(strings.NewReader(l.DB), data.Native)
		if err != nil {
			c.store.Quarantine(path, fmt.Errorf("database does not decode: %w", err))
			continue
		}
		req := jobs.Request{
			Algo: l.Algo, MinSup: l.MinSup, DB: db,
			Opts: core.Options{BiLevel: l.BiLevel, Levels: l.Levels, Gamma: l.Gamma, Workers: l.Workers},
		}
		if got := core.CheckpointFingerprint(req.Algo, req.Opts, req.MinSup, db); got != l.Fingerprint {
			c.store.Quarantine(path, fmt.Errorf("fingerprint %016x does not match its own job (%016x)", l.Fingerprint, got))
			continue
		}
		if _, err := submit(req); err != nil {
			c.cfg.Logf("cluster: resubmitting ledgered job %016x: %v", l.Fingerprint, err)
			continue
		}
		c.cfg.Logf("cluster: recovered interrupted job %016x from its shard ledger", l.Fingerprint)
		n++
	}
	return n
}
