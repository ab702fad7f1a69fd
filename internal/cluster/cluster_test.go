package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/disc-mining/disc/internal/checkpoint"
	"github.com/disc-mining/disc/internal/core"
	"github.com/disc-mining/disc/internal/data"
	"github.com/disc-mining/disc/internal/faultinject"
	"github.com/disc-mining/disc/internal/jobs"
	"github.com/disc-mining/disc/internal/mining"
	_ "github.com/disc-mining/disc/internal/prefixspan" // registry entry for the non-shardable path
	"github.com/disc-mining/disc/internal/testutil"
)

func render(res *mining.Result) string {
	var b strings.Builder
	if err := jobs.WriteResult(&b, res); err != nil {
		panic(err)
	}
	return b.String()
}

// startWorker serves one in-process worker and returns its base URL.
func startWorker(t *testing.T, cfg WorkerConfig) string {
	t.Helper()
	return serveWorker(t, NewWorker(cfg))
}

// serveWorker serves w and returns its base URL.
func serveWorker(t *testing.T, w *Worker) string {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("POST /cluster/shard", w.HandleShard)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv.URL
}

// shardBase is the dispatch a coordinator would build for req split
// into shards shards.
func shardBase(t *testing.T, req jobs.Request, shards int) ShardRequest {
	t.Helper()
	var db strings.Builder
	if err := data.Write(&db, req.DB, data.Native); err != nil {
		t.Fatal(err)
	}
	return ShardRequest{
		Algo: req.Algo, MinSup: req.MinSup,
		BiLevel: req.Opts.BiLevel, Levels: req.Opts.Levels, Gamma: req.Opts.Gamma,
		Shards: shards, Fingerprint: Fingerprint(core.CheckpointFingerprint(req.Algo, req.Opts, req.MinSup, req.DB)),
		DB: db.String(),
	}
}

func testReq(t *testing.T, algo string) jobs.Request {
	t.Helper()
	r := rand.New(rand.NewSource(41))
	req := jobs.Request{Algo: algo, MinSup: 2, DB: testutil.SkewedRandomDB(r, 80, 12, 6, 4)}
	switch algo {
	case "disc-all":
		req.Opts = core.Options{BiLevel: true, Levels: 2}
	case "dynamic-disc-all":
		req.Opts = core.Options{BiLevel: true, Gamma: 0.5}
	}
	return req
}

func localRun(t *testing.T, req jobs.Request) string {
	t.Helper()
	miner, err := localMinerFor(req.Algo, req.Opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := mining.AsContextMiner(miner).MineContext(context.Background(), req.DB, req.MinSup)
	if err != nil {
		t.Fatal(err)
	}
	return render(res)
}

func TestClusterMineByteIdenticalToLocal(t *testing.T) {
	for _, algo := range []string{"disc-all", "dynamic-disc-all"} {
		t.Run(algo, func(t *testing.T) {
			req := testReq(t, algo)
			want := localRun(t, req)
			var peers []string
			for i := 0; i < 3; i++ {
				peers = append(peers, startWorker(t, WorkerConfig{}))
			}
			c := New(Config{Peers: peers, Shards: 5, ShardTimeout: time.Minute})
			res, err := c.Mine(context.Background(), req, nil)
			if err != nil {
				t.Fatal(err)
			}
			if got := render(res); got != want {
				t.Fatalf("clustered result differs from local run:\ngot %d bytes, want %d bytes", len(got), len(want))
			}
			if n := int(c.shards["done"].Value()); n != 5 {
				t.Fatalf("want 5 shards done, got %d", n)
			}
		})
	}
}

func TestClusterRetriesDroppedConnections(t *testing.T) {
	req := testReq(t, "disc-all")
	want := localRun(t, req)
	// Worker A drops the connection on every shard request; worker B is
	// healthy. Every shard must land on B, byte-identically.
	bad := startWorker(t, WorkerConfig{
		Faults: faultinject.New(7).Arm(faultinject.ShardDrop, faultinject.Spec{Prob: 1}),
	})
	good := startWorker(t, WorkerConfig{MaxConcurrent: 8})
	c := New(Config{Peers: []string{bad, good}, Shards: 3, ShardTimeout: time.Minute, Cooldown: time.Millisecond})
	res, err := c.Mine(context.Background(), req, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := render(res); got != want {
		t.Fatal("clustered result with a dropping worker differs from local run")
	}
	if c.shards["retried"].Value() == 0 {
		t.Fatal("dropped connections should have counted as retries")
	}
	if n := int(c.shards["done"].Value()); n != 3 {
		t.Fatalf("want 3 shards done, got %d", n)
	}
}

func TestClusterReschedulesMidShardFailureFromCheckpoint(t *testing.T) {
	req := testReq(t, "disc-all")
	want := localRun(t, req)
	// Worker A panics inside the engine partway through a shard (after 3
	// completed partitions) — its reply carries a typed error plus the
	// partial checkpoint. The reschedule must resume, not restart.
	flaky := startWorker(t, WorkerConfig{
		Faults: faultinject.New(11).Arm(faultinject.WorkerPanic, faultinject.Spec{AfterN: 4}),
	})
	good := startWorker(t, WorkerConfig{MaxConcurrent: 8})
	c := New(Config{Peers: []string{flaky, good}, Shards: 2, ShardTimeout: time.Minute, Cooldown: time.Millisecond})
	cp := core.NewCheckpointer()
	res, err := c.Mine(context.Background(), req, cp)
	if err != nil {
		t.Fatal(err)
	}
	if got := render(res); got != want {
		t.Fatal("clustered result with a mid-shard panic differs from local run")
	}
	if cp.Completed() == 0 {
		t.Fatal("received partitions should have been recorded into the job checkpointer")
	}
}

func TestClusterLocalFallbackWhenFleetUnusable(t *testing.T) {
	req := testReq(t, "disc-all")
	want := localRun(t, req)
	// Every worker drops every request: all shards exhaust their retries
	// and are mined locally — correctness never depends on the fleet.
	bad := startWorker(t, WorkerConfig{
		Faults: faultinject.New(7).Arm(faultinject.ShardDrop, faultinject.Spec{Prob: 1}),
	})
	c := New(Config{Peers: []string{bad}, Shards: 2, Retries: 1, ShardTimeout: time.Second, Cooldown: time.Millisecond})
	res, err := c.Mine(context.Background(), req, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := render(res); got != want {
		t.Fatal("local-fallback result differs from local run")
	}
	if n := int(c.shards["local"].Value()); n != 2 {
		t.Fatalf("want 2 shards mined locally, got %d", n)
	}
}

func TestClusterNonShardableRunsLocally(t *testing.T) {
	req := testReq(t, "disc-all")
	req.Algo = "prefixspan"
	req.Opts = core.Options{}
	want := localRun(t, req)
	c := New(Config{Peers: []string{"http://127.0.0.1:1"}}) // never contacted
	res, err := c.Mine(context.Background(), req, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := render(res); got != want {
		t.Fatal("non-shardable local run differs")
	}
	if c.shards["done"].Value()+c.shards["local"].Value() != 0 {
		t.Fatal("non-shardable algorithm must not touch the shard path")
	}
}

func TestWorkerRejectsFingerprintMismatch(t *testing.T) {
	url := startWorker(t, WorkerConfig{})
	req := testReq(t, "disc-all")
	c := New(Config{Peers: []string{url}})
	base := ShardRequest{
		Algo: req.Algo, MinSup: req.MinSup, BiLevel: true, Levels: 2,
		Shards: 1, Fingerprint: "00000000deadbeef", DB: "1:(1 2)(3)\n",
	}
	resp, err := c.dispatch(context.Background(), url, base, 0, "", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Error == nil || resp.Error.Kind != "input" {
		t.Fatalf("want typed input error for fingerprint mismatch, got %+v", resp.Error)
	}
}

func TestWorkerShedsBeyondCapacity(t *testing.T) {
	// MaxConcurrent 1 with its only slot taken: the next request must
	// shed with kind "shed", not queue — and shed before it parses.
	w := NewWorker(WorkerConfig{MaxConcurrent: 1})
	w.sem <- struct{}{}
	defer func() { <-w.sem }()
	url := serveWorker(t, w)
	c := New(Config{Peers: []string{url}})
	resp, err := c.dispatch(context.Background(), url, shardBase(t, testReq(t, "disc-all"), 1), 0, "", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Error == nil || resp.Error.Kind != "shed" {
		t.Fatalf("want shed error from saturated worker, got %+v", resp.Error)
	}
	if n := w.dbs.parses.Value(); n != 0 {
		t.Fatalf("a shed request parsed %d databases, want none", n)
	}
}

func TestRegistrationAndHeartbeatTTL(t *testing.T) {
	c := New(Config{HeartbeatTTL: 50 * time.Millisecond})
	mux := http.NewServeMux()
	mux.HandleFunc("POST /cluster/register", c.HandleRegister)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go Heartbeat(ctx, nil, srv.URL, "http://worker-1", "", 10*time.Millisecond, nil)

	deadline := time.Now().Add(2 * time.Second)
	for len(c.Workers()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("worker never registered")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := c.Workers(); len(got) != 1 || got[0] != "http://worker-1" {
		t.Fatalf("workers = %v", got)
	}
	cancel() // stop heartbeating; the TTL must expire the worker
	deadline = time.Now().Add(2 * time.Second)
	for len(c.Workers()) != 0 {
		if time.Now().After(deadline) {
			t.Fatal("worker never expired after heartbeats stopped")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestManagerMineHookDelegatesToCoordinator(t *testing.T) {
	req := testReq(t, "disc-all")
	want := localRun(t, req)
	worker := startWorker(t, WorkerConfig{MaxConcurrent: 8})
	var called atomic.Int32
	coord := New(Config{Peers: []string{worker}, Shards: 2, ShardTimeout: time.Minute})
	m := jobs.NewManager(jobs.Config{
		Workers: 1,
		Mine: func(ctx context.Context, r jobs.Request, cp *core.Checkpointer) (*mining.Result, error) {
			called.Add(1)
			return coord.Mine(ctx, r, cp)
		},
	})
	defer m.Drain(context.Background())
	j, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-j.Done():
	case <-time.After(30 * time.Second):
		t.Fatal("job did not finish")
	}
	res, ok := j.Result()
	if !ok {
		t.Fatalf("job failed: %v", j.Status().Err)
	}
	if got := render(res); got != want {
		t.Fatal("manager-dispatched clustered job differs from local run")
	}
	if called.Load() != 1 {
		t.Fatalf("mine hook called %d times, want 1", called.Load())
	}
}

// TestLatencyCreationDoesNotDeadlockMetricsScrape is the regression test
// for an ABBA deadlock: latency() used to hold Coordinator.mu while
// creating the histogram (which takes Registry.mu), while a /metrics
// scrape holds Registry.mu and invokes the disc_cluster_workers gauge fn
// (which takes Coordinator.mu). Hammering both paths concurrently must
// finish.
func TestLatencyCreationDoesNotDeadlockMetricsScrape(t *testing.T) {
	c := New(Config{})
	// Hammer both lock paths continuously for a fixed window: scrapers
	// render (Registry.mu → gauge fn → Coordinator.mu) while creators
	// register fresh per-worker histograms (the path that used to take
	// Coordinator.mu → Registry.mu). The old ordering deadlocks within
	// milliseconds under this load; the fixed one always finishes.
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(2)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					if err := c.obs.Registry.WriteText(io.Discard); err != nil {
						t.Errorf("WriteText: %v", err)
						return
					}
				}
			}()
			go func(g int) {
				defer wg.Done()
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					c.latency(fmt.Sprintf("http://worker-%d-%d", g, i)).Observe(0.001)
				}
			}(g)
		}
		wg.Wait()
	}()
	time.AfterFunc(2*time.Second, func() { close(stop) })
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("metrics scrape deadlocked against latency histogram creation (ABBA on Coordinator.mu / Registry.mu)")
	}
}

// TestBudgetedJobsTakeLocalPath: resource budgets are job-global, so a
// budgeted job must never shard — each worker would enforce the full
// budget against its own shard, breaking the byte-identical contract
// exactly when budgets bind.
func TestBudgetedJobsTakeLocalPath(t *testing.T) {
	req := testReq(t, "disc-all")
	req.Opts.MaxPatterns = 1 << 30 // non-binding, but present
	want := localRun(t, req)
	worker := startWorker(t, WorkerConfig{MaxConcurrent: 8})
	c := New(Config{Peers: []string{worker}, Shards: 2, ShardTimeout: time.Minute})
	res, err := c.Mine(context.Background(), req, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := render(res); got != want {
		t.Fatal("budgeted clustered run differs from local run")
	}
	total := c.shards["done"].Value() + c.shards["local"].Value() +
		c.shards["retried"].Value() + c.shards["failed"].Value()
	if total != 0 {
		t.Fatalf("budgeted job touched the shard path (%d shard outcomes)", total)
	}

	// A binding budget surfaces the same typed failure a local run does,
	// instead of shards each mining up to the full budget.
	req.Opts.MaxPatterns = 1
	if _, err := c.Mine(context.Background(), req, nil); !errors.Is(err, mining.ErrBudgetExceeded) {
		t.Fatalf("binding budget should fail like a local run, got %v", err)
	}
}

// TestClusterSecretEnforced: with a configured fleet secret, shard
// dispatch and registration both require it; a matching fleet still
// mines byte-identically.
func TestClusterSecretEnforced(t *testing.T) {
	req := testReq(t, "disc-all")
	want := localRun(t, req)
	url := startWorker(t, WorkerConfig{Secret: "fleet-secret", MaxConcurrent: 8})
	base := shardBase(t, req, 1)

	// A coordinator without the secret is turned away with a typed error.
	open := New(Config{Peers: []string{url}})
	resp, err := open.dispatch(context.Background(), url, base, 0, "", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Error == nil || resp.Error.Kind != "auth" {
		t.Fatalf("want auth error from secret-protected worker, got %+v", resp.Error)
	}

	// The matching secret mines byte-identically.
	c := New(Config{Peers: []string{url}, Shards: 2, Secret: "fleet-secret", ShardTimeout: time.Minute})
	res, err := c.Mine(context.Background(), req, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := render(res); got != want {
		t.Fatal("secret-authenticated clustered run differs from local run")
	}

	// Registration demands the secret too: a rogue announce is refused…
	mux := http.NewServeMux()
	mux.HandleFunc("POST /cluster/register", c.HandleRegister)
	srv := httptest.NewServer(mux)
	defer srv.Close()
	rr, err := http.Post(srv.URL+"/cluster/register", "application/json",
		strings.NewReader(`{"url":"http://rogue:1"}`))
	if err != nil {
		t.Fatal(err)
	}
	rr.Body.Close()
	if rr.StatusCode != http.StatusUnauthorized {
		t.Fatalf("unauthenticated registration answered HTTP %d, want 401", rr.StatusCode)
	}
	if got := c.Workers(); len(got) != 1 {
		t.Fatalf("unauthenticated registration must not add a worker: %v", got)
	}
	// …while an authenticated heartbeat registers.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go Heartbeat(ctx, nil, srv.URL, "http://worker-2", "fleet-secret", 5*time.Millisecond, nil)
	deadline := time.Now().Add(2 * time.Second)
	for len(c.Workers()) != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("authenticated heartbeat never registered: %v", c.Workers())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestBadSuccessCheckpointIsRetriedNotDone: a 200 response whose
// checkpoint is undecodable, fingerprint-mismatched or absent used to be
// silently counted done, quietly degrading the shard to local re-mining
// during assembly. It must count as a retry instead.
func TestBadSuccessCheckpointIsRetriedNotDone(t *testing.T) {
	req := testReq(t, "disc-all")
	want := localRun(t, req)
	fp := core.CheckpointFingerprint(req.Algo, req.Opts, req.MinSup, req.DB)
	wrongFP, err := encodeCheckpoint(&checkpoint.File{
		Algo: req.Algo, Fingerprint: fp ^ 0xff, MinSup: req.MinSup,
	})
	if err != nil {
		t.Fatal(err)
	}
	for name, ckpt := range map[string]string{
		"undecodable": "this is not a checkpoint",
		"mismatched":  wrongFP,
		"absent":      "",
	} {
		t.Run(name, func(t *testing.T) {
			srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
				writeShardResponse(rw, http.StatusOK, &ShardResponse{Checkpoint: ckpt})
			}))
			defer srv.Close()
			c := New(Config{Peers: []string{srv.URL}, Shards: 1, Retries: 1,
				ShardTimeout: time.Minute, Cooldown: time.Millisecond})
			res, err := c.Mine(context.Background(), req, nil)
			if err != nil {
				t.Fatal(err)
			}
			if got := render(res); got != want {
				t.Fatal("result with a checkpoint-corrupting worker differs from local run")
			}
			if n := c.shards["done"].Value(); n != 0 {
				t.Fatalf("bad success checkpoint counted %d shards done, want 0", n)
			}
			if c.shards["retried"].Value() == 0 {
				t.Fatal("bad success checkpoint should count as a retry")
			}
			if n := c.shards["local"].Value(); n != 1 {
				t.Fatalf("shard should have fallen back to local mining, got %d", n)
			}
		})
	}
}

// TestWorkerResumeRejectionMessages: the two resume-rejection causes
// must be distinguishable — a decode failure reports the parse error, a
// fingerprint mismatch reports both fingerprints (not "<nil>").
func TestWorkerResumeRejectionMessages(t *testing.T) {
	url := startWorker(t, WorkerConfig{})
	req := testReq(t, "disc-all")
	fp := core.CheckpointFingerprint(req.Algo, req.Opts, req.MinSup, req.DB)
	base := shardBase(t, req, 1)
	c := New(Config{Peers: []string{url}})

	resp, err := c.dispatch(context.Background(), url, base, 0, "this is not a checkpoint", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Error == nil || !strings.Contains(resp.Error.Message, "bad resume checkpoint") ||
		strings.Contains(resp.Error.Message, "<nil>") {
		t.Fatalf("undecodable resume: want the decode error, got %+v", resp.Error)
	}

	wrong, err := encodeCheckpoint(&checkpoint.File{
		Algo: req.Algo, Fingerprint: fp ^ 0xff, MinSup: req.MinSup,
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err = c.dispatch(context.Background(), url, base, 0, wrong, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Error == nil || !strings.Contains(resp.Error.Message, "does not match job") {
		t.Fatalf("mismatched resume: want an explicit fingerprint-mismatch message, got %+v", resp.Error)
	}
}
