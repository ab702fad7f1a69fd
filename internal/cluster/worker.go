package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/disc-mining/disc/internal/core"
	"github.com/disc-mining/disc/internal/data"
	"github.com/disc-mining/disc/internal/faultinject"
	"github.com/disc-mining/disc/internal/jobs"
	"github.com/disc-mining/disc/internal/mining"
	"github.com/disc-mining/disc/internal/obs"
)

// WorkerConfig shapes a shard worker.
type WorkerConfig struct {
	// Workers is the mining concurrency of one shard run (0 selects
	// GOMAXPROCS, like core.Options.Workers).
	Workers int
	// MaxPatterns and MaxMemBytes are this worker's own budgets; a shard
	// runs under the tighter of these and the request's.
	MaxPatterns int
	MaxMemBytes int64
	// MaxConcurrent bounds concurrently mined shards; excess requests are
	// shed with 429 so the coordinator reschedules them (default 2).
	MaxConcurrent int
	// MaxBodyBytes caps the request body (default 1 GiB).
	MaxBodyBytes int64
	// Secret, when set, is required on every /cluster/shard request —
	// the same shared fleet secret the coordinator is configured with.
	// Empty serves the shard endpoint open (trusted networks only).
	Secret string
	// Faults arms the worker-side fault points: ShardDrop (abort the
	// connection mid-request), ShardSlow (stall before mining), ShardHang
	// (stall until the request is canceled — a straggler that never
	// finishes on its own), and the engine points of the shard run itself.
	Faults *faultinject.Injector
	// Logf receives operational log lines (nil discards them).
	Logf func(format string, args ...any)
	// Obs is the shared observability handle (nil gets a private one).
	Obs *obs.Observer
	// Node names this worker in the span records it returns to the
	// coordinator (default "worker"). A fleet timeline reads it to say
	// where each shard actually ran.
	Node string
	// TraceEvents bounds the per-shard flight recorder (0 selects
	// obs.DefaultRecorderEvents); TraceSeed seeds span ID minting
	// (0 = time-seeded; tests pin it for golden timelines).
	TraceEvents int
	TraceSeed   int64
}

// Worker mines dispatched shards. It is the server side of the shard
// protocol; mount Handler on the serving mux.
type Worker struct {
	cfg    WorkerConfig
	sem    chan struct{}
	obs    *obs.Observer
	ids    *obs.IDSource           // span ID minting for propagated traces
	served map[string]*obs.Counter // outcome -> counter
	dur    *obs.Histogram
	dbs    *dbTable
}

// dbTable holds the databases this worker parsed last, keyed by their
// text, so the shards of one job that reach this worker — together, or
// later as retries and hedges — parse its database once, and fingerprint
// it once. It keeps at most MaxConcurrent entries, the number of
// databases the worker may mine at once anyway, and evicts the least
// recently used. Parsing is single-flight: a request for a database
// another request is parsing waits for that parse. Entries are shared
// read-only by concurrent shard runs; the engine never writes a customer
// sequence.
type dbTable struct {
	mu      sync.Mutex
	size    int
	entries []*dbEntry // least recently used first
	parses  *obs.Counter
}

type dbEntry struct {
	text  string
	ready chan struct{} // closed once db and err are set
	db    mining.Database
	err   error

	fpMu sync.Mutex
	fps  map[fpKey]uint64 // job fingerprints of db computed so far
}

// fpKey is what a job fingerprint depends on besides the database.
type fpKey struct {
	algo, opts string // opts: core.OptionsSignature
	minSup     int
}

// get returns the entry of text, parsed as a data.Native database.
func (t *dbTable) get(text string) (*dbEntry, error) {
	t.mu.Lock()
	for i, e := range t.entries {
		if e.text == text {
			copy(t.entries[i:], t.entries[i+1:])
			t.entries[len(t.entries)-1] = e
			t.mu.Unlock()
			<-e.ready
			return e, e.err
		}
	}
	e := &dbEntry{text: text, ready: make(chan struct{})}
	if len(t.entries) == t.size {
		t.entries = append(t.entries[:0], t.entries[1:]...)
	}
	t.entries = append(t.entries, e)
	t.mu.Unlock()
	t.parses.Inc()
	e.db, e.err = data.Read(strings.NewReader(text), data.Native)
	close(e.ready)
	return e, e.err
}

// fingerprint returns the job fingerprint of the entry's database under
// algo, o and minSup. It is computed once per key and entry: the other
// shards of the job, and its retries and hedges, read it back. A caller
// arriving while it is computed waits for it.
func (e *dbEntry) fingerprint(algo string, o core.Options, minSup int) uint64 {
	k := fpKey{algo: algo, opts: core.OptionsSignature(o), minSup: minSup}
	e.fpMu.Lock()
	defer e.fpMu.Unlock()
	fp, ok := e.fps[k]
	if !ok {
		fp = core.CheckpointFingerprint(algo, o, minSup, e.db)
		if e.fps == nil {
			e.fps = map[fpKey]uint64{}
		}
		e.fps[k] = fp
	}
	return fp
}

// NewWorker returns a worker ready to serve shard requests.
func NewWorker(cfg WorkerConfig) *Worker {
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = 2
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 1 << 30
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if cfg.Node == "" {
		cfg.Node = "worker"
	}
	o := cfg.Obs
	if o == nil {
		o = obs.NewObserver()
	}
	w := &Worker{cfg: cfg, sem: make(chan struct{}, cfg.MaxConcurrent), obs: o,
		ids: obs.NewIDSource(cfg.TraceSeed)}
	r := o.Registry
	w.served = map[string]*obs.Counter{}
	for _, outcome := range []string{"done", "failed", "canceled", "shed", "input", "auth"} {
		w.served[outcome] = r.Counter("disc_cluster_worker_shards_total",
			"Shard requests served by this worker, by outcome.",
			obs.Label{Key: "outcome", Value: outcome})
	}
	w.dur = r.Histogram("disc_cluster_worker_shard_seconds",
		"Wall time of one shard mined by this worker.", obs.DurationBuckets)
	w.dbs = &dbTable{size: cfg.MaxConcurrent,
		parses: r.Counter("disc_cluster_worker_db_parses_total",
			"Shard databases this worker parsed; a shard whose database the worker parsed recently reuses it.")}
	return w
}

// HandleShard is POST /cluster/shard: mine one shard of a job and reply
// with its shard-granular checkpoint. Mining failures still answer 200
// with a typed error next to the partial checkpoint — the transport
// worked, the mining did not, and the coordinator needs both facts.
func (w *Worker) HandleShard(rw http.ResponseWriter, r *http.Request) {
	if !authorized(w.cfg.Secret, r) {
		w.reject(rw, http.StatusUnauthorized, &jobs.WireError{Kind: "auth", Message: "missing or wrong cluster secret"})
		return
	}
	if ct := r.Header.Get("Content-Type"); ct != shardContentType {
		w.reject(rw, http.StatusBadRequest, inputError(
			"shard requests must be encoded as %s, got %q (every fleet role must run the same build)", shardContentType, ct))
		return
	}
	req, err := decodeShardRequest(http.MaxBytesReader(rw, r.Body, w.cfg.MaxBodyBytes), w.cfg.MaxBodyBytes)
	if err != nil {
		w.reject(rw, http.StatusBadRequest, jobs.TypedWireError(err))
		return
	}
	site := fmt.Sprintf("shard-%d/%d", req.Shard, req.Shards)
	// Fault points for the resilience grid: a dropped connection (the
	// coordinator sees a transport error, no response at all) and a
	// stalled worker (the coordinator's shard timeout fires).
	if w.cfg.Faults.Fire(faultinject.ShardDrop, site) {
		w.cfg.Logf("cluster: worker dropping connection at %s (injected)", site)
		panic(http.ErrAbortHandler)
	}
	if w.cfg.Faults.Fire(faultinject.ShardSlow, site) {
		w.cfg.Logf("cluster: worker stalling at %s (injected)", site)
		select {
		case <-time.After(30 * time.Second):
		case <-r.Context().Done():
			return
		}
	}
	if w.cfg.Faults.Fire(faultinject.ShardHang, site) {
		// A straggler that never finishes: hold the request until the
		// coordinator gives up on it (hedge win, TTL expiry, or timeout).
		w.cfg.Logf("cluster: worker hanging at %s until canceled (injected)", site)
		<-r.Context().Done()
		return
	}

	if !shardable(req.Algo) {
		w.reject(rw, http.StatusBadRequest, inputError("algorithm %q is not shardable", req.Algo))
		return
	}
	if req.Shards < 1 || req.Shard < 0 || req.Shard >= req.Shards {
		w.reject(rw, http.StatusBadRequest, inputError("shard %d of %d out of range", req.Shard, req.Shards))
		return
	}
	fp, err := strconv.ParseUint(req.Fingerprint, 16, 64)
	if err != nil {
		w.reject(rw, http.StatusBadRequest, inputError("bad fingerprint %q", req.Fingerprint))
		return
	}

	// Admission control before any parsing: shed beyond MaxConcurrent so a
	// saturated worker answers immediately and the coordinator reschedules
	// elsewhere.
	select {
	case w.sem <- struct{}{}:
		defer func() { <-w.sem }()
	default:
		w.reject(rw, http.StatusTooManyRequests, &jobs.WireError{Kind: "shed", Message: "worker at shard capacity"})
		return
	}

	ent, err := w.dbs.get(req.DB)
	if err != nil {
		w.reject(rw, http.StatusBadRequest, inputError("decoding shard database: %v", err))
		return
	}
	db := ent.db
	// The worker derives the job identity from what it actually decoded:
	// a corrupted database or mismatched options cannot silently mine the
	// wrong job into a checkpoint the coordinator will trust.
	if got := ent.fingerprint(req.Algo, req.Options(), req.MinSup); got != fp {
		w.reject(rw, http.StatusBadRequest,
			inputError("fingerprint mismatch: request says %016x, decoded job is %016x", fp, got))
		return
	}

	cp := core.NewCheckpointer()
	if req.Resume != "" {
		f, err := decodeCheckpoint(req.Resume)
		if err != nil {
			w.reject(rw, http.StatusBadRequest, inputError("bad resume checkpoint: %v", err))
			return
		}
		if f.Fingerprint != fp {
			w.reject(rw, http.StatusBadRequest,
				inputError("resume checkpoint fingerprint %016x does not match job %016x", f.Fingerprint, fp))
			return
		}
		cp = core.ResumeFrom(f)
	}

	opts := req.Options()
	opts.Workers = tighter(req.Workers, w.cfg.Workers)
	opts.MaxPatterns = tighter(req.MaxPatterns, w.cfg.MaxPatterns)
	opts.MaxMemBytes = tighter(req.MaxMemBytes, w.cfg.MaxMemBytes)
	opts.Checkpoint = cp
	opts.Shard = &core.ShardSpec{Index: req.Shard, Count: req.Shards}
	opts.Faults = w.cfg.Faults
	opts.Obs = w.obs

	// Trace propagation: a dispatch carrying the trace headers gets its
	// own worker-side flight recorder under the propagated trace ID. The
	// worker's root span parents under the coordinator's shard span, the
	// engine's spans parent under the worker's root span, and every
	// completed record travels back in the response for the coordinator
	// to fold into the job's timeline. Every shard of the job lands in
	// that one coordinator recorder, so a shard gets its share of this
	// worker's recorder budget rather than all of it.
	var tc *obs.TraceContext
	var wsp obs.Span
	if trace, ok := obs.ParseTraceID(r.Header.Get(traceIDHeader)); ok {
		parent, _ := obs.ParseSpanID(r.Header.Get(parentSpanHeader))
		events := w.cfg.TraceEvents
		if events <= 0 {
			events = obs.DefaultRecorderEvents
		}
		tc = obs.NewTraceContext(trace, w.cfg.Node, w.ids, obs.NewRecorder(max(events/req.Shards, 1)))
		wsp = w.obs.WithTrace(tc, parent).Span("shard_worker")
		opts.Obs = w.obs.WithTrace(tc, wsp.ID())
	}

	start := time.Now()
	mineErr := mining.Contain(site, func() error {
		miner, err := minerFor(req.Algo, opts)
		if err != nil {
			return err
		}
		_, err = mining.AsContextMiner(miner).MineContext(r.Context(), db, req.MinSup)
		return err
	})
	w.dur.Observe(time.Since(start).Seconds())
	wsp.End()

	file := cp.File(req.Algo, req.MinSup, fp)
	file.Shard, file.ShardCount = req.Shard, req.Shards
	text, encErr := encodeCheckpoint(file)
	resp := ShardResponse{Checkpoint: text, Spans: tc.Recorder().Spans(), Dropped: tc.Recorder().Dropped()}
	switch {
	case errors.Is(mineErr, context.Canceled) || errors.Is(mineErr, context.DeadlineExceeded):
		// The coordinator canceled us (hedge lost, TTL expiry, shard
		// timeout) — it is no longer listening, but account for the wasted
		// work and answer anyway for any proxy still holding the socket.
		resp.Error = jobs.TypedWireError(mineErr)
		w.served["canceled"].Inc()
		w.cfg.Logf("cluster: %s canceled after %d partitions", site, cp.Completed())
	case mineErr != nil:
		resp.Error = jobs.TypedWireError(mineErr)
		w.served["failed"].Inc()
		w.cfg.Logf("cluster: %s failed after %d partitions: %v", site, cp.Completed(), mineErr)
	case encErr != nil:
		resp.Checkpoint = ""
		resp.Error = jobs.TypedWireError(encErr)
		w.served["failed"].Inc()
	default:
		w.served["done"].Inc()
		w.cfg.Logf("cluster: %s done: %d partitions (%d restored)", site, cp.Completed(), cp.Restored())
	}
	writeShardResponse(rw, http.StatusOK, &resp)
}

// minerFor builds the shardable algorithms directly — the registry
// clones lose the Opts wiring the shard run needs.
func minerFor(algo string, opts core.Options) (mining.Miner, error) {
	switch algo {
	case "disc-all":
		return &core.Miner{Opts: opts}, nil
	case "dynamic-disc-all":
		return &core.Dynamic{Opts: opts}, nil
	}
	return nil, fmt.Errorf("cluster: algorithm %q is not shardable", algo)
}

func (w *Worker) reject(rw http.ResponseWriter, code int, we *jobs.WireError) {
	if ctr, ok := w.served[we.Kind]; ok && we.Kind != "done" && we.Kind != "failed" {
		ctr.Inc()
	}
	writeShardResponse(rw, code, &ShardResponse{Error: we})
}
