package mining

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"
)

func TestEffectiveWorkers(t *testing.T) {
	if got := (ExecOptions{}).EffectiveWorkers(); got != runtime.GOMAXPROCS(0) {
		t.Errorf("zero value = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := (ExecOptions{Workers: -3}).EffectiveWorkers(); got != runtime.GOMAXPROCS(0) {
		t.Errorf("negative = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	for _, w := range []int{1, 2, 16} {
		if got := (ExecOptions{Workers: w}).EffectiveWorkers(); got != w {
			t.Errorf("Workers %d = %d", w, got)
		}
	}
}

// fakeMiner is a controllable serial Miner for adapter tests.
type fakeMiner struct {
	block chan struct{} // when non-nil, Mine blocks until closed
	res   *Result
	err   error
	runs  int
}

func (f *fakeMiner) Name() string { return "fake" }

func (f *fakeMiner) Mine(db Database, minSup int) (*Result, error) {
	f.runs++
	if f.block != nil {
		<-f.block
	}
	return f.res, f.err
}

func TestAsContextMinerPassThrough(t *testing.T) {
	want := NewResult()
	want.Add(pat("(a)"), 3)
	f := &fakeMiner{res: want}
	cm := AsContextMiner(f)
	if cm.Name() != "fake" {
		t.Errorf("Name = %q", cm.Name())
	}
	res, err := cm.MineContext(context.Background(), nil, 2)
	if err != nil || res != want {
		t.Fatalf("MineContext = (%v, %v), want (%v, nil)", res, err, want)
	}
	// The plain Mine path still works through the embedded Miner.
	if res, err := cm.Mine(nil, 2); err != nil || res != want {
		t.Fatalf("Mine = (%v, %v)", res, err)
	}
	if f.runs != 2 {
		t.Errorf("underlying miner ran %d times, want 2", f.runs)
	}
}

func TestAsContextMinerPropagatesError(t *testing.T) {
	boom := errors.New("boom")
	cm := AsContextMiner(&fakeMiner{err: boom})
	if _, err := cm.MineContext(context.Background(), nil, 2); err != boom {
		t.Fatalf("err = %v, want boom", err)
	}
}

func TestAsContextMinerCancellation(t *testing.T) {
	block := make(chan struct{})
	f := &fakeMiner{block: block}
	cm := AsContextMiner(f)
	defer close(block) // let the abandoned goroutine finish

	// Pre-cancelled context: the mine never starts.
	pre, cancelPre := context.WithCancel(context.Background())
	cancelPre()
	if _, err := cm.MineContext(pre, nil, 2); err != context.Canceled {
		t.Fatalf("pre-cancelled err = %v", err)
	}
	if f.runs != 0 {
		t.Fatalf("pre-cancelled context still started the miner")
	}

	// Cancellation mid-run: MineContext returns promptly even though the
	// underlying Mine is stuck.
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := cm.MineContext(ctx, nil, 2)
		done <- err
	}()
	cancel()
	select {
	case err := <-done:
		if err != context.Canceled {
			t.Fatalf("err = %v, want Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("MineContext did not return after cancellation")
	}
}

func TestAsContextMinerIdempotent(t *testing.T) {
	cm := AsContextMiner(&fakeMiner{})
	if AsContextMiner(cm) != cm {
		t.Error("wrapping a ContextMiner must return it unchanged")
	}
}

// TestContain pins the panic-containment contract: fn's error passes
// through untouched, a panic becomes an *InvariantError carrying the
// partition, value and stack, and error panic values stay unwrappable.
func TestContain(t *testing.T) {
	if err := Contain("p", func() error { return nil }); err != nil {
		t.Fatalf("clean fn: %v", err)
	}
	want := errors.New("boom")
	if err := Contain("p", func() error { return want }); err != want {
		t.Fatalf("error fn: %v, want pass-through", err)
	}
	err := Contain("<root>", func() error { panic("invariant dead") })
	if !errors.Is(err, ErrInternalInvariant) {
		t.Fatalf("panic fn: %v does not match ErrInternalInvariant", err)
	}
	var ie *InvariantError
	if !errors.As(err, &ie) {
		t.Fatalf("panic fn: %T is not *InvariantError", err)
	}
	if ie.Partition != "<root>" || len(ie.Stack) == 0 {
		t.Errorf("InvariantError = %+v, missing partition or stack", ie)
	}
	cause := errors.New("typed panic")
	err = Contain("p", func() error { panic(cause) })
	if !errors.Is(err, cause) {
		t.Errorf("error panic value not unwrapped: %v", err)
	}
}

// TestBudgetError: typed budget failures match the sentinel and carry
// the breached resource.
func TestBudgetError(t *testing.T) {
	err := error(&BudgetError{Resource: "patterns", Limit: 10, Used: 11})
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatal("BudgetError does not match ErrBudgetExceeded")
	}
	var be *BudgetError
	if !errors.As(err, &be) || be.Resource != "patterns" || be.Limit != 10 || be.Used != 11 {
		t.Fatalf("BudgetError = %+v", be)
	}
	if be.Error() == "" || !errors.Is(err, err) {
		t.Error("BudgetError must render and self-match")
	}
}
