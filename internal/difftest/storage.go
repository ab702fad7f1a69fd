// Storage-fault cluster checks: the disk-failure counterpart of the
// chaos regimes. Where CheckClusterChaos proves the fleet survives its
// own coordinator, these regimes prove the durable-state plane survives
// its own disk: a volume running out of space mid-ledger (the run must
// finish byte-identical with durability degraded, not crash), and a
// ledger corrupted between a crash and its recovery (the successor must
// quarantine the evidence and mine fresh, again byte-identical). Both
// regimes assert the fault actually fired.
package difftest

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"time"

	"github.com/disc-mining/disc/internal/checkpoint"
	"github.com/disc-mining/disc/internal/cluster"
	"github.com/disc-mining/disc/internal/core"
	"github.com/disc-mining/disc/internal/faultinject"
	"github.com/disc-mining/disc/internal/jobs"
	"github.com/disc-mining/disc/internal/mining"
)

// CheckStorageFaults runs db through the two disk-fault regimes on both
// shardable engines. It is the only entry point that runs them: the
// storage-fault grid (make storagefault) drives it, and CheckClusterChaos
// leaves them out.
func CheckStorageFaults(db mining.Database, minSup int, seed int64) error {
	const shards = 3
	for _, cfg := range clusterConfigs() {
		straight, err := cfg.mk(cfg.opts).MineContext(context.Background(), db, minSup)
		if err != nil {
			return fmt.Errorf("%s: local run failed: %w", cfg.name, err)
		}
		want := render(straight)
		req := jobs.Request{Algo: cfg.name, MinSup: minSup, Opts: cfg.opts, DB: db}

		if err := chaosLedgerENOSPC(cfg.name, req, want, shards, seed); err != nil {
			return err
		}
		if err := chaosCorruptLedgerRecover(cfg.name, req, want, shards, seed); err != nil {
			return err
		}
	}
	return nil
}

// chaosLedgerENOSPC fills the ledger volume after a small byte budget:
// ledger writes start failing with ENOSPC mid-run, the coordinator must
// trip into degraded-durability mode and keep scheduling, and the result
// must still be byte-identical to a local run — losing the disk loses
// restartability, never result bytes.
func chaosLedgerENOSPC(name string, req jobs.Request, want string, shards int, seed int64) error {
	urls, shutdown := clusterFleet(3, nil)
	defer shutdown()
	dir, err := os.MkdirTemp("", "disc-chaos-enospc-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	inj := faultinject.New(seed).Arm(faultinject.StorageENOSPC, faultinject.Spec{AfterN: 512})
	c := cluster.New(cluster.Config{
		Peers: urls, Shards: shards, ShardTimeout: time.Minute,
		Cooldown: time.Millisecond, LedgerDir: dir,
		FS: inj.FS(nil), DegradeAfter: 2, DurabilityProbe: time.Hour,
	})
	res, err := c.Mine(context.Background(), req, nil)
	if err != nil {
		return fmt.Errorf("%s/ledger-enospc seed=%d: a full ledger volume must not fail the run: %w", name, seed, err)
	}
	if got := render(res); got != want {
		return fmt.Errorf("%s/ledger-enospc seed=%d: result differs from local run", name, seed)
	}
	if inj.Fired(faultinject.StorageENOSPC) == 0 {
		return fmt.Errorf("%s/ledger-enospc seed=%d: the byte budget never ran out — the drill proved nothing", name, seed)
	}
	if got := c.LedgerWriteFailures(); got < 2 {
		return fmt.Errorf("%s/ledger-enospc seed=%d: %d ledger write failures counted, want >= 2", name, seed, got)
	}
	if !c.DegradedDurability() {
		return fmt.Errorf("%s/ledger-enospc seed=%d: coordinator never tripped into degraded-durability mode", name, seed)
	}
	return nil
}

// chaosCorruptLedgerRecover crashes a coordinator mid-job (stranding a
// real ledger), corrupts that ledger on disk, and requires the successor
// to quarantine it at Recover — not resubmit it, not crash — and then
// mine the job fresh to a byte-identical result.
func chaosCorruptLedgerRecover(name string, req jobs.Request, want string, shards int, seed int64) error {
	urls, shutdown := clusterFleet(3, nil)
	defer shutdown()
	dir, err := os.MkdirTemp("", "disc-chaos-rot-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	inj := faultinject.New(seed).Arm(faultinject.CoordinatorCrash,
		faultinject.Spec{AfterN: 1 + int(seed%4)})
	c1 := cluster.New(cluster.Config{
		Peers: urls, Shards: shards, ShardTimeout: time.Minute,
		Cooldown: time.Millisecond, LedgerDir: dir, Faults: inj,
	})
	if _, err := c1.Mine(context.Background(), req, nil); !errors.Is(err, cluster.ErrCoordinatorCrash) {
		return fmt.Errorf("%s/corrupt-ledger seed=%d: want ErrCoordinatorCrash, got %v", name, seed, err)
	}

	fp := core.CheckpointFingerprint(req.Algo, req.Opts, req.MinSup, req.DB)
	path := cluster.LedgerPath(dir, fp)
	b, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("%s/corrupt-ledger seed=%d: the crash left no ledger to corrupt: %w", name, seed, err)
	}
	b[len(b)/2] ^= 0x01 // rot one bit between the crash and the restart
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return err
	}

	c2 := cluster.New(cluster.Config{
		Peers: urls, Shards: shards, ShardTimeout: time.Minute,
		Cooldown: time.Millisecond, LedgerDir: dir,
	})
	if n := c2.Recover(func(jobs.Request) (*jobs.Job, error) {
		return nil, fmt.Errorf("a corrupt ledger must never be resubmitted")
	}); n != 0 {
		return fmt.Errorf("%s/corrupt-ledger seed=%d: Recover resubmitted %d jobs from a corrupt ledger", name, seed, n)
	}
	if got := c2.QuarantinedLedgers(); got != 1 {
		return fmt.Errorf("%s/corrupt-ledger seed=%d: %d ledgers quarantined at recover, want 1", name, seed, got)
	}
	if _, err := os.Stat(path + checkpoint.QuarantineSuffix); err != nil {
		return fmt.Errorf("%s/corrupt-ledger seed=%d: quarantine evidence missing: %v", name, seed, err)
	}
	if _, err := os.Stat(path); !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("%s/corrupt-ledger seed=%d: corrupt ledger still holds its name (stat: %v)", name, seed, err)
	}

	res, err := c2.Mine(context.Background(), req, nil)
	if err != nil {
		return fmt.Errorf("%s/corrupt-ledger seed=%d: fresh run after quarantine failed: %w", name, seed, err)
	}
	if got := render(res); got != want {
		return fmt.Errorf("%s/corrupt-ledger seed=%d: post-quarantine result differs from local run", name, seed)
	}
	if _, err := os.Stat(path); !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("%s/corrupt-ledger seed=%d: fresh ledger not retired after the run (stat: %v)", name, seed, err)
	}
	return nil
}
