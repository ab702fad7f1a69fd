// Chaos cluster checks: the self-healing counterpart of
// CheckClusterEquivalence. Where the cluster grid proves the fleet
// survives worker faults, CheckClusterChaos proves the fleet survives
// its own coordinator: a coordinator killed at a ledger transition whose
// successor resumes only the unfinished shards, a registered worker
// dying with a shard in hand (heartbeat-TTL expiry must reschedule it
// immediately), and a straggler that never answers (hedged dispatch must
// race a second attempt and keep exactly one). Every regime must end
// byte-identical to a local run, and every regime asserts its fault
// actually fired — a chaos drill that cannot show its fault happened
// proves nothing.
package difftest

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"time"

	"github.com/disc-mining/disc/internal/cluster"
	"github.com/disc-mining/disc/internal/core"
	"github.com/disc-mining/disc/internal/faultinject"
	"github.com/disc-mining/disc/internal/jobs"
	"github.com/disc-mining/disc/internal/mining"
)

// CheckClusterChaos runs db through the coordinator-side failure
// regimes on both shardable engines and verifies byte-identical results
// plus fired-fault evidence for each. The disk-fault regimes are
// CheckStorageFaults' own.
func CheckClusterChaos(db mining.Database, minSup int, seed int64) error {
	const shards = 3
	for _, cfg := range clusterConfigs() {
		straight, err := cfg.mk(cfg.opts).MineContext(context.Background(), db, minSup)
		if err != nil {
			return fmt.Errorf("%s: local run failed: %w", cfg.name, err)
		}
		want := render(straight)
		req := jobs.Request{Algo: cfg.name, MinSup: minSup, Opts: cfg.opts, DB: db}

		if err := chaosCoordinatorCrash(cfg.name, req, want, shards, seed); err != nil {
			return err
		}
		if err := chaosTTLExpiry(cfg.name, req, want, shards, seed); err != nil {
			return err
		}
		if err := chaosStragglerHedge(cfg.name, req, want, shards, seed); err != nil {
			return err
		}
	}
	return nil
}

// chaosCoordinatorCrash kills the coordinator (in-process: the
// CoordinatorCrash point) at a seed-derived ledger transition, then
// restarts a fresh coordinator over the surviving ledger and requires
// the resumed job to be byte-identical, the ledger to be retired, and
// only unfinished shards to have been re-dispatched.
func chaosCoordinatorCrash(name string, req jobs.Request, want string, shards int, seed int64) error {
	urls, shutdown := clusterFleet(3, nil)
	defer shutdown()
	dir, err := os.MkdirTemp("", "disc-chaos-ledger-")
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
		return fmt.Errorf("%s/coordinator-crash seed=%d: want ErrCoordinatorCrash, got %v", name, seed, err)
	}
	if got := inj.Fired(faultinject.CoordinatorCrash); got != 1 {
		return fmt.Errorf("%s/coordinator-crash seed=%d: crash fired %d times, want 1", name, seed, got)
	}

	c2 := cluster.New(cluster.Config{
		Peers: urls, Shards: shards, ShardTimeout: time.Minute, Cooldown: time.Millisecond, LedgerDir: dir,
	})
	res, err := c2.Mine(context.Background(), req, nil)
	if err != nil {
		return fmt.Errorf("%s/coordinator-crash seed=%d: resumed run failed: %w", name, seed, err)
	}
	if got := render(res); got != want {
		return fmt.Errorf("%s/coordinator-crash seed=%d: resumed result differs from local run", name, seed)
	}
	fp := core.CheckpointFingerprint(req.Algo, req.Opts, req.MinSup, req.DB)
	if _, err := os.Stat(cluster.LedgerPath(dir, fp)); !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("%s/coordinator-crash seed=%d: ledger not retired after resume (stat: %v)", name, seed, err)
	}
	return nil
}

// chaosTTLExpiry registers a worker that hangs every shard it receives
// and never heartbeats again: the coordinator must cancel its in-flight
// dispatch the moment the heartbeat TTL expires and reschedule onto the
// healthy static workers, well before the shard timeout.
func chaosTTLExpiry(name string, req jobs.Request, want string, shards int, seed int64) error {
	hangInj := faultinject.New(seed).Arm(faultinject.ShardHang, faultinject.Spec{Prob: 1})
	urls, shutdown := clusterFleet(3, map[int]*faultinject.Injector{0: hangInj})
	defer shutdown()

	// Workers 1 and 2 are static peers; the hanging worker 0 joins by
	// registration only and goes silent after one beat.
	c := cluster.New(cluster.Config{
		Peers: urls[1:], Shards: shards, ShardTimeout: time.Minute,
		HeartbeatTTL: 200 * time.Millisecond, Cooldown: time.Millisecond,
	})
	c.Register(urls[0])
	start := time.Now()
	res, err := c.Mine(context.Background(), req, nil)
	if err != nil {
		return fmt.Errorf("%s/ttl-expiry seed=%d: run failed: %w", name, seed, err)
	}
	if got := render(res); got != want {
		return fmt.Errorf("%s/ttl-expiry seed=%d: result differs from local run", name, seed)
	}
	if hangInj.Fired(faultinject.ShardHang) == 0 {
		return fmt.Errorf("%s/ttl-expiry seed=%d: the registered worker never received (and hung) a shard", name, seed)
	}
	if c.ExpiredDispatches() == 0 {
		return fmt.Errorf("%s/ttl-expiry seed=%d: hung dispatch was not canceled by TTL expiry", name, seed)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		return fmt.Errorf("%s/ttl-expiry seed=%d: reschedule took %v — the shard waited out the timeout", name, seed, elapsed)
	}
	return nil
}

// chaosStragglerHedge makes one static worker hang forever: the
// latency-quantile hedge must race a second dispatch, the winning reply
// is kept, and each shard counts exactly once (no double-merge — the
// byte-identity check would catch duplicated support counts too).
func chaosStragglerHedge(name string, req jobs.Request, want string, shards int, seed int64) error {
	hangInj := faultinject.New(seed).Arm(faultinject.ShardHang, faultinject.Spec{Prob: 1})
	urls, shutdown := clusterFleet(3, map[int]*faultinject.Injector{0: hangInj})
	defer shutdown()

	c := cluster.New(cluster.Config{
		Peers: urls, Shards: shards, ShardTimeout: time.Minute, Cooldown: time.Millisecond,
		HedgeQuantile: 0.95, HedgeMinDelay: 50 * time.Millisecond,
	})
	res, err := c.Mine(context.Background(), req, nil)
	if err != nil {
		return fmt.Errorf("%s/straggler-hedge seed=%d: run failed: %w", name, seed, err)
	}
	if got := render(res); got != want {
		return fmt.Errorf("%s/straggler-hedge seed=%d: hedged result differs from local run", name, seed)
	}
	if hangInj.Fired(faultinject.ShardHang) == 0 {
		return fmt.Errorf("%s/straggler-hedge seed=%d: the straggler never received a shard", name, seed)
	}
	if c.HedgesLaunched() == 0 {
		return fmt.Errorf("%s/straggler-hedge seed=%d: straggler held a shard but no hedge launched", name, seed)
	}
	return nil
}
