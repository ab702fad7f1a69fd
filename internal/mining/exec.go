// Execution layer: the options, progress hooks and context-aware miner
// interface that every algorithm in this repository runs through. The
// DISC-all engine implements ContextMiner natively (cooperative
// cancellation plus a bounded partition worker pool); the serial baseline
// miners are adapted with AsContextMiner, which provides cancellation at
// the granularity of the whole run.
package mining

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
)

// StagePartitions is the ProgressEvent stage reporting first-level
// partition scheduling and completion of a partitioned DISC-all run.
const StagePartitions = "partitions"

// ProgressEvent is one execution progress report. An event with Done == 0
// announces a stage with Total units of work; subsequent events carry the
// number of completed units.
type ProgressEvent struct {
	// Stage identifies the unit of work (e.g. StagePartitions).
	Stage string
	// Done and Total count completed and scheduled units of work.
	Done, Total int
	// Workers is the size of the worker pool executing the stage (1 for a
	// serial run).
	Workers int
}

// ProgressFunc receives progress events during a mining run. Engines
// serialize their callbacks: a ProgressFunc never runs concurrently with
// itself, but it may be invoked from a goroutine other than the caller of
// Mine, so it must not touch the caller's state without synchronization.
type ProgressFunc func(ProgressEvent)

// ExecOptions configures how a mining run executes, independently of the
// algorithm: how many workers may run concurrently, where progress is
// reported, and the soft resource budgets of the run. The zero value
// selects a serial-equivalent default (GOMAXPROCS workers, no progress
// reporting, no budgets).
type ExecOptions struct {
	// Workers bounds the number of concurrently running workers. 0 selects
	// runtime.GOMAXPROCS(0); 1 forces a serial run. Engines guarantee that
	// the mined result is identical at every setting.
	Workers int
	// Progress, when non-nil, receives execution progress events.
	Progress ProgressFunc
	// MaxPatterns is a soft budget on the number of frequent patterns a
	// run may produce; 0 means unlimited. When a run crosses the
	// degradation threshold (BudgetDegradeFraction of the budget) the
	// engine degrades — it stops multi-level partitioning below the first
	// level and shrinks the worker pool, both result-preserving — and on
	// reaching the budget itself it stops with a *BudgetError (matching
	// ErrBudgetExceeded). Statistics of the work completed before the
	// stop remain available through LastStats.
	MaxPatterns int
	// MaxMemBytes is a soft budget on the process heap (runtime
	// HeapAlloc), sampled at partition boundaries; 0 means unlimited. The
	// degradation ladder is the same as MaxPatterns'. Because heap size
	// depends on the collector, breaching is not deterministic — set it
	// as an operational guard, not as a correctness knob.
	MaxMemBytes int64
}

// EffectiveWorkers resolves the Workers field: values below 1 select
// GOMAXPROCS.
func (o ExecOptions) EffectiveWorkers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// ContextMiner is a Miner whose runs can be cancelled through a
// context.Context (cancellation or deadline). MineContext returns
// ctx.Err() when the run was cut short; the partial result is discarded.
type ContextMiner interface {
	Miner
	MineContext(ctx context.Context, db Database, minSup int) (*Result, error)
}

// AsContextMiner returns m itself when it already implements ContextMiner
// (the DISC-all family does, with cooperative per-partition cancellation),
// and otherwise wraps it so that MineContext works uniformly across all
// eight algorithms.
//
// The wrapper runs the serial Mine on its own goroutine and abandons it on
// cancellation: MineContext returns ctx.Err() immediately, while the
// goroutine finishes its (discarded) computation in the background and
// then exits. This trades promptness for the inability to interrupt the
// underlying serial algorithm mid-flight — acceptable for the baselines,
// whose runs the repository only uses for verification and benchmarks.
func AsContextMiner(m Miner) ContextMiner {
	if cm, ok := m.(ContextMiner); ok {
		return cm
	}
	return &contextAdapter{Miner: m}
}

// contextAdapter adapts a serial Miner to ContextMiner.
type contextAdapter struct {
	Miner
}

// MineContext implements ContextMiner.
func (a *contextAdapter) MineContext(ctx context.Context, db Database, minSup int) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	type outcome struct {
		res *Result
		err error
	}
	ch := make(chan outcome, 1) // buffered: the goroutine never blocks, so it exits even after abandonment
	go func() {
		res, err := a.Miner.Mine(db, minSup)
		ch <- outcome{res, err}
	}()
	select {
	case <-ctx.Done():
		return nil, ctx.Err()
	case o := <-ch:
		return o.res, o.err
	}
}

// BudgetDegradeFraction is the point of the resource budgets at which an
// engine degrades before failing: at 80% of MaxPatterns or MaxMemBytes
// it switches to its cheapest execution shape (single-level
// partitioning, inline workers), and only at 100% does it stop with a
// *BudgetError. Degradation never changes the mined result set — only
// how (and how fast) it is computed.
const BudgetDegradeFraction = 0.8

// ErrInternalInvariant is matched (via errors.Is) by the error a mining
// run returns when an internal invariant violation — a bug — was caught
// by the engine's panic containment instead of crashing the process.
var ErrInternalInvariant = errors.New("mining: internal invariant violated")

// InvariantError is the concrete contained-panic error: the partition
// the panic fired in, the recovered value and the goroutine stack. It
// matches ErrInternalInvariant.
type InvariantError struct {
	// Partition identifies where the panic fired (a partition key, or
	// "<root>" for the top-level walk).
	Partition string
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack trace.
	Stack []byte
}

// Error implements error.
func (e *InvariantError) Error() string {
	return fmt.Sprintf("mining: internal invariant violated in partition %s: %v\n%s",
		e.Partition, e.Value, e.Stack)
}

// Is matches ErrInternalInvariant.
func (e *InvariantError) Is(target error) bool { return target == ErrInternalInvariant }

// Unwrap exposes a panic value that was itself an error (e.g. an
// injected fault), so errors.As reaches it.
func (e *InvariantError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// Contain runs fn, converting a panic into a returned *InvariantError so
// that a bug inside a partition worker surfaces as an error from Mine
// instead of crashing the process. Every goroutine the engine spawns
// runs under it: a panic on a worker goroutine is uncatchable by the
// caller of Mine, so this is the only boundary that can keep the
// process alive.
func Contain(partition string, fn func() error) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &InvariantError{Partition: partition, Value: v, Stack: debug.Stack()}
		}
	}()
	return fn()
}

// ErrBudgetExceeded is matched (via errors.Is) by the error a run
// returns when it exhausts one of the ExecOptions soft budgets after
// degrading.
var ErrBudgetExceeded = errors.New("mining: resource budget exceeded")

// BudgetError reports which budget a stopped run exhausted. It matches
// ErrBudgetExceeded. Statistics of the completed work remain available
// through the miner's LastStats.
type BudgetError struct {
	Resource    string // "patterns" or "memory"
	Limit, Used int64
}

// Error implements error.
func (e *BudgetError) Error() string {
	return fmt.Sprintf("mining: %s budget exceeded (%d used, limit %d) after degraded execution",
		e.Resource, e.Used, e.Limit)
}

// Is matches ErrBudgetExceeded.
func (e *BudgetError) Is(target error) bool { return target == ErrBudgetExceeded }
