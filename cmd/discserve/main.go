// Command discserve runs the DISC mining engine as a hardened HTTP
// service: a bounded job queue with admission control and load
// shedding, per-job deadlines and resource budgets, panic containment,
// fingerprint-keyed job deduplication (identical submissions attach to
// the in-flight job or hit the result cache), checkpoint/resume across
// restarts, and graceful drain on SIGTERM.
//
// Usage:
//
//	discserve -addr :8375 [-jobs 2] [-queue 16] [-checkpoint-dir /var/lib/discserve] [-max-patterns N] [-max-mem-bytes N]
//
// Endpoints:
//
//	POST   /jobs?minsup=0.01[&algo=disc-all&workers=4&timeout=30s&wait=1]  (body: database, native or SPMF)
//	GET    /jobs/{id}          status (typed error payload on failures)
//	GET    /jobs/{id}/result   patterns, text/plain, canonical order
//	DELETE /jobs/{id}          cancel (progress is checkpointed)
//	GET    /healthz            liveness + metrics
//	GET    /readyz             admission readiness (503 while draining)
//	GET    /metrics            Prometheus text exposition
//	GET    /debug/jobs/{id}/timeline  assembled fleet-wide trace timeline of the job
//
// With -admin-addr, a second listener serves /metrics, the job
// timelines (and, with -pprof, the /debug/pprof/* profiling surface)
// away from the job API, so scraping and profiling are never exposed
// on the tenant-facing port. -trace additionally streams every span
// record as a structured JSON log line to stderr as it closes.
//
// Cluster roles (-role): a coordinator shards each disc-all-family job
// across its -peers and self-registered workers (POST /cluster/register
// is the heartbeat), rescheduling failed shards from their checkpoints
// and assembling a byte-identical result; a worker serves POST
// /cluster/shard and, with -coordinator, announces itself there every
// -heartbeat. Both roles keep the full job API. -cluster-secret sets a
// shared fleet secret required on the /cluster/* endpoints; without it
// they are open, which is safe only on a trusted network.
//
// A coordinator self-heals: with -ledger-dir it journals every shard
// scheduling decision to a durable per-job ledger and, on restart,
// resubmits interrupted jobs and resumes only their unfinished shards
// (byte-identical result, no client action needed); per-worker circuit
// breakers (-breaker-failures/-breaker-backoff/-breaker-max-backoff)
// park failing workers with jittered exponential backoff and half-open
// probes; -hedge-quantile duplicates straggling shard attempts onto a
// second worker once they outlive the fleet's latency quantile
// (-hedge-min floor, -hedge-budget cap). Configurations that would
// wedge a fleet — zero timeouts, a heartbeat TTL under the heartbeat
// interval — are rejected at startup.
//
// Overload answers 429 with Retry-After; oversized inputs answer 413;
// SIGTERM stops admission, finishes (or checkpoints) the backlog within
// -drain-timeout, and exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/disc-mining/disc/internal/cliutil"
	"github.com/disc-mining/disc/internal/cluster"
	"github.com/disc-mining/disc/internal/data"
	"github.com/disc-mining/disc/internal/faultinject"
	"github.com/disc-mining/disc/internal/jobs"
	"github.com/disc-mining/disc/internal/obs"

	// Imported for their miner registrations: the service accepts every
	// algorithm name the registry knows.
	_ "github.com/disc-mining/disc"
)

// serveConfig is everything the flags decide, factored out so tests can
// parse a flag vector without starting a server.
type serveConfig struct {
	addr         string
	adminAddr    string
	pprof        bool
	trace        bool
	jobs         jobs.Config
	limits       data.Limits
	maxBodyBytes int64
	workers      int
	drainTimeout time.Duration

	// Cluster role wiring (-role coordinator|worker|standalone).
	role          string
	cluster       cluster.Config // coordinator side
	coordinator   string         // worker side: coordinator base URL to register with
	advertise     string         // worker side: our externally reachable base URL
	heartbeat     time.Duration  // worker side: registration interval
	clusterSecret string         // shared fleet secret (both roles)
	faults        *faultinject.Injector
}

// parseFlags maps the command line onto a serveConfig. The budget and
// checkpoint flags are the shared cliutil set, so discmine and discserve
// cannot drift apart.
func parseFlags(args []string) (serveConfig, error) {
	fs := flag.NewFlagSet("discserve", flag.ContinueOnError)
	var cfg serveConfig
	fs.StringVar(&cfg.addr, "addr", "127.0.0.1:8375", "listen address (host:port; port 0 picks a free port)")
	fs.StringVar(&cfg.adminAddr, "admin-addr", "", "serve /metrics (and -pprof) on this separate address (empty = disabled)")
	fs.BoolVar(&cfg.pprof, "pprof", false, "expose /debug/pprof/* on the admin listener (requires -admin-addr)")
	fs.BoolVar(&cfg.trace, "trace", false, "stream span records as structured JSON log lines to stderr (trace/span/parent IDs included)")
	fs.IntVar(&cfg.jobs.Workers, "jobs", 2, "jobs mined concurrently")
	fs.IntVar(&cfg.jobs.QueueDepth, "queue", 16, "admitted-but-not-running backlog bound; beyond it submissions are shed with 429")
	fs.IntVar(&cfg.workers, "workers", 0, "default per-job partition worker pool size (0 = one per CPU)")
	fs.DurationVar(&cfg.jobs.JobTimeout, "job-timeout", 0, "per-job deadline (0 = none)")
	fs.DurationVar(&cfg.drainTimeout, "drain-timeout", 30*time.Second, "SIGTERM grace: in-flight jobs past it are canceled and checkpointed")
	fs.StringVar(&cfg.jobs.CheckpointDir, "checkpoint-dir", "", "persist per-job checkpoints here; interrupted jobs resume on resubmission")
	fs.Int64Var(&cfg.maxBodyBytes, "max-body-bytes", 64<<20, "reject request bodies larger than this with 413")
	fs.IntVar(&cfg.limits.MaxLineBytes, "max-line-bytes", 0, "per-line input size limit (0 = default)")
	fs.IntVar(&cfg.limits.MaxTokens, "max-tokens", 0, "per-line token count limit (0 = default)")
	fs.IntVar(&cfg.jobs.CacheJobs, "cache", 64, "terminal jobs retained for result caching and idempotent retries")
	fs.DurationVar(&cfg.jobs.RetryAfter, "retry-after", time.Second, "Retry-After hint on 429/503 responses")
	fs.StringVar(&cfg.role, "role", "standalone", "cluster role: standalone, coordinator (shard jobs across -peers and registered workers) or worker (serve /cluster/shard)")
	peers := fs.String("peers", "", "coordinator: comma-separated static worker base URLs")
	fs.IntVar(&cfg.cluster.Shards, "shards", 0, "coordinator: shards per job (0 = one per live worker)")
	fs.DurationVar(&cfg.cluster.ShardTimeout, "shard-timeout", 5*time.Minute, "coordinator: per-attempt shard deadline; a shard past it is rescheduled from its checkpoint")
	fs.IntVar(&cfg.cluster.Retries, "shard-retries", 3, "coordinator: reschedules per shard before mining it locally")
	fs.DurationVar(&cfg.cluster.HeartbeatTTL, "heartbeat-ttl", 30*time.Second, "coordinator: registered workers expire this long after their last heartbeat; an expired worker's in-flight shards are rescheduled immediately")
	fs.StringVar(&cfg.cluster.LedgerDir, "ledger-dir", "", "coordinator: persist a per-job shard ledger here; a restarted coordinator recovers interrupted jobs from it and re-runs only their unfinished shards")
	fs.IntVar(&cfg.cluster.BreakerFailures, "breaker-failures", 3, "coordinator: consecutive transport failures that open a worker's circuit breaker (typed worker errors get double the grace)")
	fs.DurationVar(&cfg.cluster.Cooldown, "breaker-backoff", 10*time.Second, "coordinator: base backoff of an open circuit breaker; consecutive trips double it, jittered")
	fs.DurationVar(&cfg.cluster.BreakerMaxBackoff, "breaker-max-backoff", 2*time.Minute, "coordinator: cap on the open-circuit backoff")
	fs.Float64Var(&cfg.cluster.HedgeQuantile, "hedge-quantile", 0.95, "coordinator: hedge a shard attempt once it outlives this quantile of observed dispatch latencies (0 disables hedging)")
	fs.DurationVar(&cfg.cluster.HedgeMinDelay, "hedge-min", time.Second, "coordinator: floor on the hedge delay")
	fs.IntVar(&cfg.cluster.HedgeBudget, "hedge-budget", 0, "coordinator: speculative dispatches allowed per job (0 = one per shard, negative disables)")
	fs.StringVar(&cfg.coordinator, "coordinator", "", "worker: coordinator base URL to register with (empty = rely on the coordinator's static -peers)")
	fs.StringVar(&cfg.advertise, "advertise", "", "worker: externally reachable base URL to register (default http://<bound addr>)")
	fs.DurationVar(&cfg.heartbeat, "heartbeat", 10*time.Second, "worker: registration heartbeat interval")
	fs.StringVar(&cfg.clusterSecret, "cluster-secret", "", "shared fleet secret required on /cluster/register and /cluster/shard (empty = open; trusted networks only)")
	fs.DurationVar(&cfg.jobs.StorageRetention, "storage-retention", 168*time.Hour, "reclaim orphaned checkpoints, stale ledgers, quarantined *.corrupt files and .tmp leftovers older than this (0 = keep forever)")
	fs.DurationVar(&cfg.jobs.StorageGCInterval, "storage-gc-interval", time.Hour, "cadence of the periodic storage GC and resting-file CRC scrub over the checkpoint and ledger directories (0 = startup pass only)")
	seed := fs.Int64("fault-seed", 0, "fault injection seed (testing/drills)")
	panicN := fs.Int("fault-panic-after", 0, "inject a worker panic on the N-th partition (testing/drills)")
	cancelN := fs.Int("fault-cancel-after", 0, "inject a cancellation on the N-th partition (testing/drills)")
	dropProb := fs.Float64("fault-shard-drop", 0, "worker: drop shard connections with this probability (testing/drills)")
	slowProb := fs.Float64("fault-shard-slow", 0, "worker: stall shard requests with this probability (testing/drills)")
	hangN := fs.Int("fault-shard-hang-after", 0, "worker: hang the N-th shard request until it is canceled (testing/drills)")
	crashN := fs.Int("fault-coordinator-crash-after", 0, "coordinator: abort the job at its N-th shard-ledger transition (testing/drills)")
	enospcB := fs.Int("fault-enospc-after-bytes", 0, "fail durable-state writes with ENOSPC once this many bytes have been accepted (testing/drills)")
	tornProb := fs.Float64("fault-torn-write", 0, "tear durable-state writes (persist half, report short write) with this probability (testing/drills)")
	syncProb := fs.Float64("fault-sync-error", 0, "fail durable-state fsyncs with EIO with this probability (testing/drills)")
	flipProb := fs.Float64("fault-bitflip", 0, "silently flip one bit of a durable-state write with this probability (testing/drills)")
	shared := cliutil.RegisterShared(fs) // -max-patterns, -max-mem-bytes, -checkpoint-interval
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	cfg.jobs.MaxPatterns = shared.MaxPatterns
	cfg.jobs.MaxMemBytes = shared.MaxMemBytes
	cfg.jobs.CheckpointInterval = shared.CheckpointInterval
	switch cfg.role {
	case "standalone", "coordinator", "worker":
	default:
		return cfg, fmt.Errorf("-role must be standalone, coordinator or worker (got %q)", cfg.role)
	}
	for _, p := range strings.Split(*peers, ",") {
		if p = strings.TrimSpace(p); p != "" {
			cfg.cluster.Peers = append(cfg.cluster.Peers, p)
		}
	}
	// Fail fast on scheduling parameters that would quietly wedge a
	// fleet: a zero shard timeout never reschedules anything, a TTL at or
	// under the heartbeat interval expires healthy workers between beats.
	if cfg.cluster.ShardTimeout <= 0 {
		return cfg, fmt.Errorf("-shard-timeout must be positive (got %s)", cfg.cluster.ShardTimeout)
	}
	if cfg.cluster.Retries < 0 {
		return cfg, fmt.Errorf("-shard-retries must not be negative (got %d)", cfg.cluster.Retries)
	}
	if cfg.heartbeat <= 0 {
		return cfg, fmt.Errorf("-heartbeat must be positive (got %s)", cfg.heartbeat)
	}
	if cfg.cluster.HeartbeatTTL <= cfg.heartbeat {
		return cfg, fmt.Errorf("-heartbeat-ttl (%s) must exceed the -heartbeat interval (%s), or workers expire between beats",
			cfg.cluster.HeartbeatTTL, cfg.heartbeat)
	}
	if cfg.cluster.HedgeQuantile < 0 || cfg.cluster.HedgeQuantile >= 1 {
		return cfg, fmt.Errorf("-hedge-quantile must be in [0,1) (got %g; 0 disables hedging)", cfg.cluster.HedgeQuantile)
	}
	if cfg.cluster.BreakerFailures < 1 {
		return cfg, fmt.Errorf("-breaker-failures must be at least 1 (got %d)", cfg.cluster.BreakerFailures)
	}
	if cfg.cluster.Cooldown <= 0 {
		return cfg, fmt.Errorf("-breaker-backoff must be positive (got %s)", cfg.cluster.Cooldown)
	}
	if cfg.cluster.BreakerMaxBackoff < cfg.cluster.Cooldown {
		return cfg, fmt.Errorf("-breaker-max-backoff (%s) must not undercut -breaker-backoff (%s)",
			cfg.cluster.BreakerMaxBackoff, cfg.cluster.Cooldown)
	}
	if cfg.cluster.LedgerDir != "" && cfg.role != "coordinator" {
		return cfg, fmt.Errorf("-ledger-dir only applies to -role coordinator (role is %q)", cfg.role)
	}
	if cfg.jobs.StorageRetention < 0 {
		return cfg, fmt.Errorf("-storage-retention must not be negative (got %s)", cfg.jobs.StorageRetention)
	}
	if cfg.jobs.StorageGCInterval < 0 {
		return cfg, fmt.Errorf("-storage-gc-interval must not be negative (got %s)", cfg.jobs.StorageGCInterval)
	}
	cfg.cluster.StorageRetention = cfg.jobs.StorageRetention
	if *panicN > 0 || *cancelN > 0 || *dropProb > 0 || *slowProb > 0 || *hangN > 0 || *crashN > 0 ||
		*enospcB > 0 || *tornProb > 0 || *syncProb > 0 || *flipProb > 0 {
		inj := faultinject.New(*seed)
		if *panicN > 0 {
			inj.Arm(faultinject.WorkerPanic, faultinject.Spec{AfterN: *panicN})
		}
		if *cancelN > 0 {
			inj.Arm(faultinject.CtxCancel, faultinject.Spec{AfterN: *cancelN})
		}
		if *dropProb > 0 {
			inj.Arm(faultinject.ShardDrop, faultinject.Spec{Prob: *dropProb})
		}
		if *slowProb > 0 {
			inj.Arm(faultinject.ShardSlow, faultinject.Spec{Prob: *slowProb})
		}
		if *hangN > 0 {
			inj.Arm(faultinject.ShardHang, faultinject.Spec{AfterN: *hangN})
		}
		if *crashN > 0 {
			inj.Arm(faultinject.CoordinatorCrash, faultinject.Spec{AfterN: *crashN})
		}
		storage := false
		if *enospcB > 0 {
			inj.Arm(faultinject.StorageENOSPC, faultinject.Spec{AfterN: *enospcB})
			storage = true
		}
		if *tornProb > 0 {
			inj.Arm(faultinject.StorageTorn, faultinject.Spec{Prob: *tornProb})
			storage = true
		}
		if *syncProb > 0 {
			inj.Arm(faultinject.StorageSync, faultinject.Spec{Prob: *syncProb})
			storage = true
		}
		if *flipProb > 0 {
			inj.Arm(faultinject.StorageBitFlip, faultinject.Spec{Prob: *flipProb})
			storage = true
		}
		if storage {
			// One shared fault FS: the ENOSPC byte budget is a volume-level
			// property, so jobs checkpoints and cluster ledgers draw on it
			// together, like files on one full disk.
			ffs := inj.FS(nil)
			cfg.jobs.FS = ffs
			cfg.cluster.FS = ffs
		}
		cfg.jobs.Faults = inj
		cfg.faults = inj
	}
	return cfg, nil
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "discserve:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	return runCtx(context.Background(), args, stdout)
}

// runCtx is run with an externally triggered shutdown: canceling ctx
// drains exactly like SIGTERM. Tests use it to host whole fleets
// in-process.
func runCtx(ctx context.Context, args []string, stdout io.Writer) error {
	cfg, err := parseFlags(args)
	if err != nil {
		return err
	}
	logf := func(format string, a ...any) { fmt.Fprintf(stdout, format+"\n", a...) }
	cfg.jobs.Logf = logf
	if cfg.pprof && cfg.adminAddr == "" {
		return fmt.Errorf("-pprof requires -admin-addr")
	}

	// One observer for the whole process: the manager counts into it,
	// both listeners render it, and expvar mirrors it for debug tooling.
	observer := obs.NewObserver()
	obs.RegisterBuildInfo(observer.Registry)
	observer.Registry.MirrorExpvar("disc")
	if cfg.trace {
		observer.Tracer.Logger = slog.New(slog.NewJSONHandler(os.Stderr, nil))
	}
	cfg.jobs.Obs = observer
	// Node names spans in the fleet timeline: the role says which kind of
	// process recorded a span, the worker's advertised URL (below) says
	// where a shard actually ran.
	cfg.jobs.Node = cfg.role

	// Cluster roles: a coordinator replaces the manager's local mining
	// with fleet dispatch; a worker additionally serves the shard
	// endpoint and heartbeats its registration. Everything else — the job
	// API, admission, checkpointing, drain — is identical in every role.
	var coord *cluster.Coordinator
	if cfg.jobs.CheckpointDir != "" {
		if err := os.MkdirAll(cfg.jobs.CheckpointDir, 0o755); err != nil {
			return fmt.Errorf("creating -checkpoint-dir: %w", err)
		}
	}
	if cfg.role != "standalone" && cfg.clusterSecret == "" {
		logf("discserve: warning: cluster role %q without -cluster-secret; /cluster/* endpoints are open to any client", cfg.role)
	}
	if cfg.role == "coordinator" {
		cc := cfg.cluster
		cc.Secret = cfg.clusterSecret
		cc.Faults = cfg.faults
		cc.Logf = logf
		cc.Obs = observer
		if cc.LedgerDir != "" {
			if err := os.MkdirAll(cc.LedgerDir, 0o755); err != nil {
				return fmt.Errorf("creating -ledger-dir: %w", err)
			}
		}
		coord = cluster.New(cc)
		cfg.jobs.Mine = coord.Mine
	}

	mgr := jobs.NewManager(cfg.jobs)
	if coord != nil {
		// Resubmit jobs interrupted by a previous coordinator's death; each
		// reloads its ledger inside Mine and re-runs only unfinished shards.
		// Recover first — it quarantines unusable ledgers — then GC, which
		// scrubs resting files and reclaims anything past retention.
		if n := coord.Recover(mgr.Submit); n > 0 {
			logf("discserve: recovered %d interrupted job(s) from the shard ledger", n)
		}
		stopGC := coord.StorageGC(cfg.jobs.StorageGCInterval)
		defer stopGC()
	}
	srv := newServer(mgr, cfg.limits, cfg.maxBodyBytes, cfg.workers, logf)
	if coord != nil {
		srv.clusterDegraded = coord.DegradedDurability
	}

	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return err
	}
	// The bound address line is the startup contract scripts key on
	// (port 0 resolves to a real port here).
	fmt.Fprintf(stdout, "discserve: listening on %s\n", ln.Addr())

	mux := srv.routes()
	hbCtx, hbCancel := context.WithCancel(context.Background())
	defer hbCancel()
	switch cfg.role {
	case "coordinator":
		mux.HandleFunc("POST /cluster/register", coord.HandleRegister)
		logf("discserve: coordinator role: %d static peers, shards=%d", len(cfg.cluster.Peers), cfg.cluster.Shards)
	case "worker":
		advertise := cfg.advertise
		if advertise == "" {
			advertise = "http://" + ln.Addr().String()
		}
		worker := cluster.NewWorker(cluster.WorkerConfig{
			Workers:       cfg.workers,
			MaxPatterns:   cfg.jobs.MaxPatterns,
			MaxMemBytes:   cfg.jobs.MaxMemBytes,
			MaxConcurrent: cfg.jobs.Workers,
			MaxBodyBytes:  cfg.maxBodyBytes,
			Secret:        cfg.clusterSecret,
			Faults:        cfg.faults,
			Logf:          logf,
			Obs:           observer,
			Node:          advertise, // span records name this worker by its fleet-visible URL
		})
		mux.HandleFunc("POST /cluster/shard", worker.HandleShard)
		if cfg.coordinator != "" {
			logf("discserve: worker role: registering %s with %s", advertise, cfg.coordinator)
			go cluster.Heartbeat(hbCtx, nil, cfg.coordinator, advertise, cfg.clusterSecret, cfg.heartbeat, logf)
		} else {
			logf("discserve: worker role: serving /cluster/shard (no -coordinator, relying on static peers)")
		}
	}

	hs := &http.Server{Handler: mux}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	var admin *http.Server
	if cfg.adminAddr != "" {
		adminLn, err := net.Listen("tcp", cfg.adminAddr)
		if err != nil {
			return err
		}
		amux := http.NewServeMux()
		amux.Handle("GET /metrics", obs.Handler(observer.Registry))
		amux.HandleFunc("GET /debug/jobs/{id}/timeline", srv.handleTimeline)
		if cfg.pprof {
			amux.HandleFunc("/debug/pprof/", pprof.Index)
			amux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
			amux.HandleFunc("/debug/pprof/profile", pprof.Profile)
			amux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
			amux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		}
		fmt.Fprintf(stdout, "discserve: admin listening on %s\n", adminLn.Addr())
		admin = &http.Server{Handler: amux}
		go func() {
			if err := admin.Serve(adminLn); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logf("discserve: admin: %v", err)
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-serveErr:
		return err
	case s := <-sig:
		logf("discserve: %v: draining (grace %s)", s, cfg.drainTimeout)
	case <-ctx.Done():
		logf("discserve: shutdown requested: draining (grace %s)", cfg.drainTimeout)
	}
	signal.Stop(sig)
	hbCancel() // stop the worker heartbeat before the listener goes away

	// Graceful drain: stop admitting (readyz flips to 503), let queued
	// and running jobs finish; past the grace they are canceled and
	// their progress checkpointed. Only then stop the HTTP listener, so
	// clients can poll job status for the whole drain.
	srv.ready.Store(false)
	ctx, cancel := context.WithTimeout(context.Background(), cfg.drainTimeout)
	defer cancel()
	if err := mgr.Drain(ctx); err != nil {
		logf("discserve: drain: %v", err)
	}
	shCtx, shCancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer shCancel()
	if admin != nil {
		if err := admin.Shutdown(shCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
			logf("discserve: admin shutdown: %v", err)
		}
	}
	if err := hs.Shutdown(shCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		// Jobs are already drained and checkpointed; a connection that
		// outlives the HTTP grace (a mid-flight scrape, an aborted shard
		// stream) is force-closed rather than holding the exit hostage.
		logf("discserve: forcing listener close: %v", err)
		hs.Close()
	}
	logf("discserve: drained, exiting")
	return nil
}
