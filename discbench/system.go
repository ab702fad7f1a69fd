package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/disc-mining/disc/internal/core"
	"github.com/disc-mining/disc/internal/data"
	"github.com/disc-mining/disc/internal/jobs"
)

// Submission indexes with a fixed meaning; measured submissions count up
// from 0.
const (
	warmupJob = -1 // the job that ends set-up
	probeJob  = -2 // the untimed job whose engine counters a traced run records
)

// jobOutcome is what the load generator saw of one job.
type jobOutcome struct {
	seconds  float64 // submit until the last result byte
	id       string  // server job id (empty in process)
	reqBytes int     // request body bytes sent
	failed   bool    // non-2xx response or typed job error
	mismatch bool    // result digest differs from the reference
	err      error
}

// system is the system under test as the load generator drives it.
type system interface {
	// job runs submission i to completion and checks its result.
	job(ctx context.Context, i int) jobOutcome
	// cpuSeconds is the user+system CPU consumed so far by every
	// process of the system.
	cpuSeconds() (float64, error)
	// peakRSSMB is the largest VmHWM of any process of the system.
	peakRSSMB() (float64, error)
	close()
}

// inProcess mines through the public library path discmine takes: parse
// the text, mine with core.Miner, write the canonical result.
type inProcess struct {
	in     *inputs
	bodies [][]byte
	opts   core.Options
}

func newInProcess(in *inputs, workers int) *inProcess {
	p := &inProcess{in: in, opts: core.DefaultOptions()}
	p.opts.Workers = workers
	for _, b := range in.bases {
		p.bodies = append(p.bodies, b.body(0))
	}
	return p
}

func (p *inProcess) job(ctx context.Context, i int) jobOutcome {
	if i < 0 {
		i = 0
	}
	idx := i % len(p.bodies)
	t0 := time.Now()
	db, err := data.Read(bytes.NewReader(p.bodies[idx]), data.Auto)
	if err != nil {
		return jobOutcome{failed: true, err: err}
	}
	m := &core.Miner{Opts: p.opts}
	res, err := m.MineContext(ctx, db, p.in.delta)
	if err != nil {
		return jobOutcome{failed: true, err: err}
	}
	h := sha256.New()
	if err := jobs.WriteResult(h, res); err != nil {
		return jobOutcome{failed: true, err: err}
	}
	out := jobOutcome{seconds: time.Since(t0).Seconds(), reqBytes: len(p.bodies[idx])}
	out.mismatch = !bytes.Equal(h.Sum(nil), p.in.bases[idx].digest[:])
	return out
}

func (p *inProcess) cpuSeconds() (float64, error) { return selfCPU(), nil }
func (p *inProcess) peakRSSMB() (float64, error)  { return peakRSSMB(0) }
func (p *inProcess) close()                       {}

// window is one measured stretch of closed-loop load.
type window struct {
	lats       []float64 // seconds per completed job
	ids        []string  // job id per completed job (servers only)
	attempted  int
	failed     int // non-2xx, typed errors and mismatches
	mismatches int
	reqBytes   int64
	seconds    float64 // start until the last completion
	cpu        float64 // system CPU seconds over the window
	firstErr   error
}

// drive runs clients closed-loop clients against sys. Each sends its next
// job only after the previous one completed, and none starts a job once
// seconds have passed; the window ends at the last completion. next
// numbers the submissions and carries on across windows.
func drive(ctx context.Context, sys system, clients int, seconds float64, next *atomic.Int64) (window, error) {
	var (
		mu sync.Mutex
		w  window
		wg sync.WaitGroup
	)
	cpu0, err := sys.cpuSeconds()
	if err != nil {
		return w, err
	}
	t0 := time.Now()
	var last time.Time
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil && time.Since(t0).Seconds() < seconds {
				o := sys.job(ctx, int(next.Add(1)-1))
				now := time.Now()
				mu.Lock()
				w.attempted++
				w.reqBytes += int64(o.reqBytes)
				switch {
				case o.failed:
					w.failed++
					if w.firstErr == nil {
						w.firstErr = o.err
					}
				case o.mismatch:
					w.failed++
					w.mismatches++
				default:
					w.lats = append(w.lats, o.seconds)
					w.ids = append(w.ids, o.id)
				}
				if now.After(last) {
					last = now
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return w, err
	}
	if last.IsZero() {
		return w, errors.New("no job completed in the window")
	}
	w.seconds = last.Sub(t0).Seconds()
	cpu1, err := sys.cpuSeconds()
	if err != nil {
		return w, err
	}
	w.cpu = cpu1 - cpu0
	return w, nil
}

// setUp starts the system and runs its warm-up job, returning the
// seconds from start to the end of that job.
func setUp(ctx context.Context, start func(context.Context) (system, error)) (system, float64, error) {
	t0 := time.Now()
	sys, err := start(ctx)
	if err != nil {
		return nil, 0, err
	}
	o := sys.job(ctx, warmupJob)
	if o.failed || o.mismatch {
		sys.close()
		if o.err == nil {
			o.err = errors.New("result digest mismatch")
		}
		return nil, 0, fmt.Errorf("warm-up job: %w", o.err)
	}
	return sys, time.Since(t0).Seconds(), nil
}
