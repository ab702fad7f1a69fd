// Differential resilience checks: the fault-injection counterparts of
// Check. CheckPanicContainment proves that injected worker panics always
// surface as typed errors from Mine — zero crashes — and that runs the
// injection happens to miss stay byte-identical to the reference.
// CheckKillResume proves the checkpoint/resume loop: a run killed at an
// injected partition boundary, snapshotted through the full encode/
// decode cycle and resumed, produces a result set byte-identical to an
// uninterrupted run — for DISC-all and Dynamic DISC-all at one and many
// workers.
package difftest

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"

	"github.com/disc-mining/disc/internal/checkpoint"
	"github.com/disc-mining/disc/internal/core"
	"github.com/disc-mining/disc/internal/faultinject"
	"github.com/disc-mining/disc/internal/mining"
)

// resilienceConfig is one engine configuration the fault-injection
// checks exercise.
type resilienceConfig struct {
	name string
	opts core.Options
	mk   func(core.Options) mining.ContextMiner
}

func resilienceConfigs() []resilienceConfig {
	workers := []int{1}
	if np := runtime.GOMAXPROCS(0); np > 1 {
		workers = append(workers, np)
	}
	var cfgs []resilienceConfig
	for _, w := range workers {
		cfgs = append(cfgs,
			resilienceConfig{
				name: fmt.Sprintf("disc-all[workers=%d]", w),
				opts: core.Options{BiLevel: true, Levels: 2, Workers: w},
				mk:   func(o core.Options) mining.ContextMiner { return &core.Miner{Opts: o} },
			},
			resilienceConfig{
				name: fmt.Sprintf("dynamic-disc-all[workers=%d]", w),
				opts: core.Options{BiLevel: true, Gamma: 0.5, Workers: w},
				mk:   func(o core.Options) mining.ContextMiner { return &core.Dynamic{Opts: o} },
			})
	}
	return cfgs
}

// render serializes a result set byte-for-byte comparably.
func render(res *mining.Result) string {
	var b strings.Builder
	for _, pc := range res.Sorted() {
		fmt.Fprintf(&b, "%s=%d\n", pc.Pattern, pc.Support)
	}
	return b.String()
}

// CheckPanicContainment mines db with the WorkerPanic point armed at
// probability derived from seed on every engine configuration. Whenever
// the injection fires, Mine must return an error matching
// mining.ErrInternalInvariant (the process never crashes); whenever it
// misses, the run must succeed with the reference result set.
func CheckPanicContainment(db mining.Database, minSup int, seed int64) error {
	ref, err := (&core.Miner{Opts: core.Options{BiLevel: true, Levels: 2}}).Mine(db, minSup)
	if err != nil {
		return fmt.Errorf("reference run failed: %w", err)
	}
	want := render(ref)
	// Sweep the firing probability so both outcomes — contained panics
	// and clean misses — occur across the grid.
	for _, prob := range []float64{0.02, 0.3, 1} {
		for _, cfg := range armedConfigs(seed, prob) {
			res, err := cfg.mk(cfg.opts).MineContext(context.Background(), db, minSup)
			fired := cfg.opts.Faults.Fired(faultinject.WorkerPanic)
			switch {
			case fired > 0 && err == nil:
				return fmt.Errorf("%s prob=%g seed=%d: %d panics injected but Mine succeeded",
					cfg.name, prob, seed, fired)
			case fired > 0 && !errors.Is(err, mining.ErrInternalInvariant):
				return fmt.Errorf("%s prob=%g seed=%d: injected panic surfaced as %v, not ErrInternalInvariant",
					cfg.name, prob, seed, err)
			case fired == 0 && err != nil:
				return fmt.Errorf("%s prob=%g seed=%d: no injection yet Mine failed: %v",
					cfg.name, prob, seed, err)
			case fired == 0 && render(res) != want:
				return fmt.Errorf("%s prob=%g seed=%d: uninjected run diverged from reference",
					cfg.name, prob, seed)
			}
		}
	}
	return nil
}

// armedConfigs returns the engine configurations each armed with a
// fresh WorkerPanic injector (injectors hold per-run counters).
func armedConfigs(seed int64, prob float64) []resilienceConfig {
	cfgs := resilienceConfigs()
	for i := range cfgs {
		cfgs[i].opts.Faults = faultinject.New(seed).
			Arm(faultinject.WorkerPanic, faultinject.Spec{Prob: prob})
	}
	return cfgs
}

// CheckKillResume kills each engine configuration at a seed-derived
// partition boundary, snapshots the checkpoint through a full encode/
// decode round trip, resumes, and requires the resumed result set to be
// byte-identical to an uninterrupted run's. The killed run must fail
// with context.Canceled (a clean cooperative stop) and the decoded
// checkpoint must carry the job fingerprint intact.
func CheckKillResume(db mining.Database, minSup int, seed int64) error {
	for _, cfg := range resilienceConfigs() {
		straight, err := cfg.mk(cfg.opts).MineContext(context.Background(), db, minSup)
		if err != nil {
			return fmt.Errorf("%s: straight run failed: %w", cfg.name, err)
		}
		want := render(straight)
		for _, killAt := range []int{1 + int(seed%7), 4 + int(seed%13)} {
			ctx, cancel := context.WithCancel(context.Background())
			cp := core.NewCheckpointer()
			inj := faultinject.New(seed).
				Arm(faultinject.CtxCancel, faultinject.Spec{AfterN: killAt}).
				OnCancel(cancel)
			opts := cfg.opts
			opts.Checkpoint = cp
			opts.Faults = inj
			_, err := cfg.mk(opts).MineContext(ctx, db, minSup)
			cancel()
			if inj.Fired(faultinject.CtxCancel) == 0 {
				// The run had fewer partition boundaries than killAt and
				// completed; the checkpoint covers everything and the
				// resume below must still reproduce the result.
				if err != nil {
					return fmt.Errorf("%s killAt=%d: uninterrupted run failed: %w", cfg.name, killAt, err)
				}
			} else if !errors.Is(err, context.Canceled) {
				return fmt.Errorf("%s killAt=%d: killed run returned %v, want context.Canceled",
					cfg.name, killAt, err)
			}

			// Snapshot through the real encoding: write, integrity-check,
			// decode, seed the resumed run.
			fp := core.CheckpointFingerprint(cfg.name, cfg.opts, minSup, db)
			var buf bytes.Buffer
			if _, err := cp.File(cfg.name, minSup, fp).Write(&buf); err != nil {
				return fmt.Errorf("%s killAt=%d: checkpoint encode: %w", cfg.name, killAt, err)
			}
			f, err := checkpoint.Read(&buf)
			if err != nil {
				return fmt.Errorf("%s killAt=%d: checkpoint decode: %w", cfg.name, killAt, err)
			}
			if f.Fingerprint != fp || f.Algo != cfg.name || f.MinSup != minSup {
				return fmt.Errorf("%s killAt=%d: checkpoint identity corrupted in round trip", cfg.name, killAt)
			}

			ropts := cfg.opts
			ropts.Checkpoint = core.ResumeFrom(f)
			res, err := cfg.mk(ropts).MineContext(context.Background(), db, minSup)
			if err != nil {
				return fmt.Errorf("%s killAt=%d: resumed run failed: %w", cfg.name, killAt, err)
			}
			if render(res) != want {
				return fmt.Errorf("%s killAt=%d seed=%d: resumed result differs from straight run:\n%s",
					cfg.name, killAt, seed, straight.Diff(res))
			}
		}
	}
	return nil
}
