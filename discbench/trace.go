package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/disc-mining/disc/internal/checkpoint"
	"github.com/disc-mining/disc/internal/core"
	"github.com/disc-mining/disc/internal/data"
	"github.com/disc-mining/disc/internal/jobs"
)

// perLayerMetrics are the metrics of --trace 1 runs, in report order. A
// layer is a package of the repository; runtime, sort (sort and slices)
// and discserve.http (net/http and encoding/json) are the standard
// library's shares. Metrics of a layer a workload does not use read 0.
var perLayerMetrics = []metricDef{
	{"data.cpu_s_per_job", "s", "lower"},
	{"data.parse_mb_per_s", "MB/s", "higher"},
	{"core.fingerprint_cpu_s_per_job", "s", "lower"},
	{"core.fingerprint_mb_per_s", "MB/s", "higher"},
	{"core.mine_cpu_s_per_job", "s", "lower"},
	{"core.arena_reuse_ratio", "frac", "higher"},
	{"core.rounds", "count", "lower"},
	{"core.hits", "count", "lower"},
	{"core.skips", "count", "lower"},
	{"core.skip_ratio", "frac", "higher"},
	{"core.kms_calls", "count", "lower"},
	{"core.ckms_calls", "count", "lower"},
	{"core.dropped", "count", "higher"},
	{"core.partitions_l1", "count", "lower"},
	{"core.partitions_l2", "count", "lower"},
	{"core.nrr_l1", "frac", "lower"},
	{"core.nrr_l2", "frac", "lower"},
	{"core.cpu_share", "frac", "lower"},
	{"kmin.cpu_share", "frac", "lower"},
	{"seq.cpu_share", "frac", "lower"},
	{"avl.cpu_share", "frac", "lower"},
	{"counting.cpu_share", "frac", "lower"},
	{"sort.cpu_share", "frac", "lower"},
	{"data.cpu_share", "frac", "lower"},
	{"mining.cpu_share", "frac", "lower"},
	{"jobs.cpu_share", "frac", "lower"},
	{"checkpoint.cpu_share", "frac", "lower"},
	{"cluster.cpu_share", "frac", "lower"},
	{"obs.cpu_share", "frac", "lower"},
	{"discserve.cpu_share", "frac", "lower"},
	{"discserve.http_cpu_share", "frac", "lower"},
	{"runtime.gc_cpu_share", "frac", "lower"},
	{"runtime.alloc_cpu_share", "frac", "lower"},
	{"runtime.other_cpu_share", "frac", "lower"},
	{"other.cpu_share", "frac", "lower"},
	{"profile.attributed_share", "frac", "higher"},
	{"runtime.alloc_mb_per_job", "MB", "lower"},
	{"mining.result_write_s_per_job", "s", "lower"},
	{"mining.result_mb_per_job", "MB", "lower"},
	{"jobs.queue_wait_s_p50", "s", "lower"},
	{"jobs.cache_hit_frac", "frac", "higher"},
	{"jobs.shed_frac", "frac", "lower"},
	{"jobs.checkpoint_writes_per_job", "count", "lower"},
	{"discserve.overhead_s_p50", "s", "lower"},
	{"discserve.request_mb_per_job", "MB", "lower"},
	{"checkpoint.ledger_writes_per_job", "count", "lower"},
	{"checkpoint.ledger_write_s_p50", "s", "lower"},
	{"checkpoint.disk_write_mb_per_job", "MB", "lower"},
	{"checkpoint.codec_mb_per_s", "MB/s", "higher"},
	{"cluster.shard_request_mb", "MB", "lower"},
	{"cluster.dispatches_per_shard", "count", "lower"},
	{"cluster.retries_per_job", "count", "lower"},
	{"cluster.hedges_launched_per_job", "count", "lower"},
	{"cluster.hedges_won_per_job", "count", "higher"},
	{"cluster.worker_shed_per_job", "count", "lower"},
	{"cluster.local_fallback_per_job", "count", "lower"},
	{"cluster.worker_shard_s_p50", "s", "lower"},
	{"cluster.dispatch_overhead_s_p50", "s", "lower"},
	{"cluster.assembly_s_per_job", "s", "lower"},
	{"cluster.shard_skew", "ratio", "lower"},
	{"obs.trace_overhead_frac", "frac", "lower"},
}

// shareCategories are the profile categories reported as <cat>_cpu_share
// (or <cat>.cpu_share for a package).
var shareCategories = map[string]string{
	"core": "core.cpu_share", "kmin": "kmin.cpu_share", "seq": "seq.cpu_share",
	"avl": "avl.cpu_share", "counting": "counting.cpu_share", catSort: "sort.cpu_share",
	"data": "data.cpu_share", "mining": "mining.cpu_share", "jobs": "jobs.cpu_share",
	"checkpoint": "checkpoint.cpu_share", "cluster": "cluster.cpu_share", "obs": "obs.cpu_share",
	catServe: "discserve.cpu_share", catHTTP: "discserve.http_cpu_share",
	catGC: "runtime.gc_cpu_share", catAlloc: "runtime.alloc_cpu_share",
	catRuntime: "runtime.other_cpu_share", catUnmapped: "other.cpu_share",
}

const mb = 1 << 20

// traced sets the system up once, measures an untraced window, then a
// window of equal length with CPU profiling on, and derives the
// per-layer metrics from what the servers and /proc report about the
// second window plus timed replays of each layer on the same inputs.
func traced(ctx context.Context, o *options, w *workload, in *inputs) (*result, []string, error) {
	sys, _, err := setUp(ctx, func(ctx context.Context) (system, error) { return w.start(ctx, o, in, 0) })
	if err != nil {
		return nil, nil, fmt.Errorf("set-up: %w", err)
	}
	defer sys.close()
	half := math.Max(1, math.Round(o.seconds/2))
	var next atomic.Int64
	plain, err := drive(ctx, sys, w.clients, half, &next)
	if err != nil {
		return nil, nil, err
	}

	v := map[string]float64{}
	var win window
	srv, _ := sys.(*served)
	if srv == nil {
		var prof bytes.Buffer
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, nil, err
		}
		win, err = drive(ctx, sys, w.clients, half, &next)
		pprof.StopCPUProfile()
		if err != nil {
			return nil, nil, err
		}
		samples, err := parseCPUProfile(prof.Bytes())
		if err != nil {
			return nil, nil, err
		}
		profileMetrics(v, samples, catUnmapped, ratio(win.cpu, float64(len(win.lats))))
	} else {
		if win, err = srv.tracedWindow(ctx, v, w, half, &next); err != nil {
			return nil, nil, err
		}
	}
	v["obs.trace_overhead_frac"] = 1 - ratio(ratio(float64(len(win.lats)), win.seconds), ratio(float64(len(plain.lats)), plain.seconds))
	// The replays below run in this process; stop the servers first so
	// they neither hold memory nor compete for the processors.
	sys.close()

	opts := core.Options{BiLevel: true, Levels: 2}
	if !w.server {
		opts = sys.(*inProcess).opts
	}
	rp, err := replay(ctx, in, opts)
	if err != nil {
		return nil, nil, err
	}
	rp.into(v, srv == nil)

	res := report(win, v, perLayerMetrics)
	notes := []string{fmt.Sprintf("traced window: %d jobs in %.3fs; untraced window: %d jobs in %.3fs",
		len(win.lats), win.seconds, len(plain.lats), plain.seconds)}
	for _, d := range perLayerMetrics {
		notes = append(notes, fmt.Sprintf("%-34s %12.6g %s", d.name, v[d.name], d.unit))
	}
	return res, notes, nil
}

// profileMetrics fills the CPU shares and the per-job CPU of the layers
// with an entry point: a layer's share of the samples under its entry
// times the measured CPU per job.
func profileMetrics(v map[string]float64, samples []cpuSample, mainCat string, cpuPerJob float64) {
	var total, dataNS, fpNS, mineNS float64
	byCat := map[string]float64{}
	for _, s := range samples {
		ns := float64(s.ns)
		total += ns
		byCat[categoryOf(s.stack, mainCat)] += ns
		switch {
		case under(s.stack, repoPkg+"data.Read"):
			dataNS += ns
		case under(s.stack, repoPkg+"checkpoint.Fingerprint"):
			fpNS += ns
		case under(s.stack, repoPkg+"core."):
			mineNS += ns
		}
	}
	for cat, name := range shareCategories {
		v[name] = ratio(byCat[cat], total)
	}
	v["profile.attributed_share"] = 1 - v["other.cpu_share"]
	v["data.cpu_s_per_job"] = ratio(dataNS, total) * cpuPerJob
	v["core.fingerprint_cpu_s_per_job"] = ratio(fpNS, total) * cpuPerJob
	v["core.mine_cpu_s_per_job"] = ratio(mineNS, total) * cpuPerJob
}

// tracedWindow measures one window while profiling every process, and
// reads the servers' counters, /proc I/O and job timelines around it.
func (s *served) tracedWindow(ctx context.Context, v map[string]float64, w *workload, seconds float64, next *atomic.Int64) (window, error) {
	before, err := s.snapshot(ctx)
	if err != nil {
		return window{}, err
	}
	profiles := make([][]byte, len(s.procs))
	perrs := make([]error, len(s.procs))
	var wg sync.WaitGroup
	for i, c := range s.procs {
		wg.Add(1)
		go func(i int, c *child) {
			defer wg.Done()
			profiles[i], perrs[i] = s.get(ctx, c.admin+"/debug/pprof/profile?seconds="+strconv.Itoa(int(seconds)))
		}(i, c)
	}
	win, err := drive(ctx, s, w.clients, seconds, next)
	wg.Wait()
	if err != nil {
		return win, err
	}
	after, err := s.snapshot(ctx)
	if err != nil {
		return win, err
	}
	var samples []cpuSample
	for i, p := range profiles {
		if perrs[i] != nil {
			return win, fmt.Errorf("profiling %s: %w", s.procs[i].role, perrs[i])
		}
		ps, err := parseCPUProfile(p)
		if err != nil {
			return win, err
		}
		samples = append(samples, ps...)
	}
	jobsDone := float64(len(win.lats))
	profileMetrics(v, samples, catServe, ratio(win.cpu, jobsDone))

	owner := after.metrics[0].minus(before.metrics[0])
	workers := series{}
	for i := 1; i < len(s.procs); i++ {
		workers.add(after.metrics[i].minus(before.metrics[i]))
	}
	var readB, writeB float64
	for i := range s.procs {
		writeB += after.io[i].writeBytes - before.io[i].writeBytes
		if i > 0 {
			readB += after.io[i].rchar - before.io[i].rchar
		}
	}

	admitted := owner.sum("disc_jobs_submitted_total") + owner.sum("disc_jobs_deduped_total") + owner.sum("disc_jobs_cache_hits_total")
	shed := owner.sum("disc_jobs_shed_total")
	v["jobs.cache_hit_frac"] = ratio(owner.sum("disc_jobs_cache_hits_total"), admitted+shed)
	v["jobs.shed_frac"] = ratio(shed, admitted+shed)
	v["jobs.checkpoint_writes_per_job"] = ratio(owner.sum("disc_checkpoint_write_seconds_count"), jobsDone)
	v["discserve.request_mb_per_job"] = ratio(float64(win.reqBytes)/mb, jobsDone)
	v["checkpoint.ledger_writes_per_job"] = ratio(owner.sum("disc_cluster_ledger_writes_total"), jobsDone)
	v["checkpoint.ledger_write_s_p50"] = histMedian(owner.histogram("disc_cluster_ledger_write_seconds"))
	v["checkpoint.disk_write_mb_per_job"] = ratio(writeB/mb, jobsDone)

	dispatches := workers.sum("disc_cluster_worker_shards_total")
	shards := owner.sum("disc_cluster_shards_total", `state="done"`) + owner.sum("disc_cluster_shards_total", `state="local"`)
	v["cluster.shard_request_mb"] = ratio(readB/mb, dispatches)
	v["cluster.dispatches_per_shard"] = ratio(dispatches, shards)
	v["cluster.retries_per_job"] = ratio(owner.sum("disc_cluster_shards_total", `state="retried"`), jobsDone)
	v["cluster.hedges_launched_per_job"] = ratio(owner.sum("disc_cluster_hedges_total", `outcome="launched"`), jobsDone)
	v["cluster.hedges_won_per_job"] = ratio(owner.sum("disc_cluster_hedges_total", `outcome="won"`), jobsDone)
	v["cluster.worker_shed_per_job"] = ratio(workers.sum("disc_cluster_worker_shards_total", `outcome="shed"`), jobsDone)
	v["cluster.local_fallback_per_job"] = ratio(owner.sum("disc_cluster_shards_total", `state="local"`), jobsDone)

	if err := s.timelineMetrics(ctx, v, win); err != nil {
		return win, err
	}
	return win, s.probeCounts(ctx, v)
}

// snapshot is every process's counters and I/O at one instant.
type snapshot struct {
	metrics []series
	io      []procIO
}

func (s *served) snapshot(ctx context.Context) (snapshot, error) {
	var sn snapshot
	for _, c := range s.procs {
		m, err := s.scrape(ctx, c)
		if err != nil {
			return sn, err
		}
		pio, err := readProcIO(c.pid())
		if err != nil {
			return sn, err
		}
		sn.metrics = append(sn.metrics, m)
		sn.io = append(sn.io, pio)
	}
	return sn, nil
}

// timeline is the subset of /debug/jobs/{id}/timeline the benchmark reads.
type timeline struct {
	Spans []struct {
		SpanID     string    `json:"span_id"`
		Parent     string    `json:"parent_span_id"`
		Stage      string    `json:"stage"`
		Node       string    `json:"node"`
		Start      time.Time `json:"start"`
		DurationNS int64     `json:"duration_ns"`
	} `json:"spans"`
	Events []struct {
		Name  string            `json:"name"`
		Time  time.Time         `json:"time"`
		Attrs map[string]string `json:"attrs"`
	} `json:"events"`
}

// maxTimelines bounds the timelines read per run: the most recent jobs,
// which the server still holds.
const maxTimelines = 40

// timelineMetrics reads the timelines of the window's last distinct jobs
// and measures queue wait, HTTP overhead, shard and assembly times.
func (s *served) timelineMetrics(ctx context.Context, v map[string]float64, win window) error {
	latency := map[string]float64{}
	var ids []string
	for i, id := range win.ids {
		if _, seen := latency[id]; !seen {
			latency[id] = win.lats[i] // the first submission mined; later ones hit the cache
			ids = append(ids, id)
		}
	}
	if len(ids) > maxTimelines {
		ids = ids[len(ids)-maxTimelines:]
	}
	var queue, overhead, workerShard, dispatch, skew []float64
	assembly, jobsSeen := 0.0, 0
	for _, id := range ids {
		b, err := s.get(ctx, s.owner.admin+"/debug/jobs/"+id+"/timeline")
		if err != nil {
			return err
		}
		var tl timeline
		if err := json.Unmarshal(b, &tl); err != nil {
			return fmt.Errorf("timeline %s: %w", id, err)
		}
		jobsSeen++
		var admit time.Time
		assigned := map[string]time.Time{}
		var shardSecs []float64
		for _, e := range tl.Events {
			switch e.Name {
			case "queue-admit":
				admit = e.Time
			case "shard-assign":
				if _, ok := assigned[e.Attrs["shard"]]; !ok {
					assigned[e.Attrs["shard"]] = e.Time
				}
			case "shard-resolve":
				if t0, ok := assigned[e.Attrs["shard"]]; ok && e.Attrs["outcome"] == "done" {
					shardSecs = append(shardSecs, e.Time.Sub(t0).Seconds())
				}
			}
		}
		if len(shardSecs) > 0 {
			mx := 0.0
			for _, x := range shardSecs {
				mx = math.Max(mx, x)
			}
			skew = append(skew, ratio(mx, median(shardSecs)))
		}
		spanDur := map[string]float64{}
		for _, sp := range tl.Spans {
			spanDur[sp.SpanID] = float64(sp.DurationNS) / 1e9
		}
		for _, sp := range tl.Spans {
			d := float64(sp.DurationNS) / 1e9
			switch {
			case sp.Stage == "job" && sp.Node == s.owner.role:
				if !admit.IsZero() {
					queue = append(queue, sp.Start.Sub(admit).Seconds())
				}
				overhead = append(overhead, latency[id]-d)
			case sp.Stage == "mine" && sp.Node == "coordinator":
				assembly += d
			case sp.Stage == "shard_worker":
				workerShard = append(workerShard, d)
				if pd, ok := spanDur[sp.Parent]; ok {
					dispatch = append(dispatch, pd-d)
				}
			}
		}
	}
	v["jobs.queue_wait_s_p50"] = median(queue)
	v["discserve.overhead_s_p50"] = median(overhead)
	v["cluster.worker_shard_s_p50"] = median(workerShard)
	v["cluster.dispatch_overhead_s_p50"] = median(dispatch)
	v["cluster.assembly_s_per_job"] = ratio(assembly, float64(jobsSeen))
	v["cluster.shard_skew"] = median(skew)
	return nil
}

// probeCounts runs one untimed job on the unrotated first base and
// records the paper's counts from the owner's engine counters: the
// standalone server mines the job itself, and a coordinator folds its
// shards' statistics into the same counters when it assembles.
func (s *served) probeCounts(ctx context.Context, v map[string]float64) error {
	before, err := s.scrape(ctx, s.owner)
	if err != nil {
		return err
	}
	if o := s.job(ctx, probeJob); o.failed || o.mismatch {
		return fmt.Errorf("probe job failed (mismatch %t): %v", o.mismatch, o.err)
	}
	after, err := s.scrape(ctx, s.owner)
	if err != nil {
		return err
	}
	d := after.minus(before)
	v["core.rounds"] = d.sum("disc_rounds_total")
	v["core.hits"] = d.sum("disc_frequent_hits_total")
	v["core.skips"] = d.sum("disc_skips_total")
	v["core.kms_calls"] = d.sum("disc_kms_calls_total")
	v["core.ckms_calls"] = d.sum("disc_ckms_calls_total")
	v["core.dropped"] = d.sum("disc_dropped_customers_total")
	v["core.partitions_l1"] = d.sum("disc_partitions_total", `level="1"`)
	v["core.partitions_l2"] = d.sum("disc_partitions_total", `level="2"`)
	v["core.skip_ratio"] = ratio(v["core.skips"], v["core.rounds"])
	return nil
}

// layerReplay is what timed calls into the layers' public functions
// measure on the first base of the workload.
type layerReplay struct {
	parseMBps, fingerprintMBps float64
	stats                      core.Stats
	allocMB                    float64
	resultWriteS, resultMB     float64
	codecMBps                  float64
}

// replay times data.Read, core.CheckpointFingerprint, the mine,
// jobs.WriteResult and the checkpoint codec on the first base.
func replay(ctx context.Context, in *inputs, opts core.Options) (layerReplay, error) {
	var rp layerReplay
	b := in.bases[0]
	text := b.body(0)
	size := float64(len(text)) / mb

	db, err := data.Read(bytes.NewReader(text), data.Auto)
	if err != nil {
		return rp, err
	}
	parse := timeReps(func() error {
		_, err := data.Read(bytes.NewReader(text), data.Auto)
		return err
	})
	var fp uint64
	fingerprint := timeReps(func() error {
		fp = core.CheckpointFingerprint("disc-all", opts, in.delta, db)
		return nil
	})
	rp.parseMBps = ratio(size, parse.secs)
	rp.fingerprintMBps = ratio(size, fingerprint.secs)

	// One whole job, for its allocation volume and statistics.
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	jdb, err := data.Read(bytes.NewReader(text), data.Auto)
	if err != nil {
		return rp, err
	}
	m := &core.Miner{Opts: opts}
	res, err := m.MineContext(ctx, jdb, in.delta)
	if err != nil {
		return rp, err
	}
	if err := jobs.WriteResult(io.Discard, res); err != nil {
		return rp, err
	}
	runtime.ReadMemStats(&ms1)
	rp.allocMB = float64(ms1.TotalAlloc-ms0.TotalAlloc) / mb
	rp.stats = m.LastStats()

	var out countWriter
	out.w = io.Discard
	write := timeReps(func() error { out.n = 0; return jobs.WriteResult(&out, res) })
	rp.resultWriteS, rp.resultMB = write.secs, float64(out.n)/mb

	// The checkpoint of the whole job, encoded and decoded.
	cp := core.NewCheckpointer()
	copts := opts
	copts.Checkpoint = cp
	if _, err := (&core.Miner{Opts: copts}).MineContext(ctx, db, in.delta); err != nil {
		return rp, err
	}
	f := cp.File("disc-all", in.delta, fp)
	var enc bytes.Buffer
	encode := timeReps(func() error { enc.Reset(); _, err := f.Write(&enc); return err })
	decode := timeReps(func() error { _, err := checkpoint.Read(bytes.NewReader(enc.Bytes())); return err })
	if encode.err != nil || decode.err != nil {
		return rp, fmt.Errorf("checkpoint codec: %v %v", encode.err, decode.err)
	}
	rp.codecMBps = ratio(float64(enc.Len())/mb, encode.secs+decode.secs)
	return rp, nil
}

// into stores the replay's metrics; the paper counts come from it only
// for in-process workloads (servers report theirs from the probe job),
// the NRR means always (no server counter carries them).
func (rp layerReplay) into(v map[string]float64, counts bool) {
	st := rp.stats
	v["data.parse_mb_per_s"] = rp.parseMBps
	v["core.fingerprint_mb_per_s"] = rp.fingerprintMBps
	v["core.arena_reuse_ratio"] = ratio(float64(st.ArenaReuses), float64(st.ArenaAcquires))
	v["runtime.alloc_mb_per_job"] = rp.allocMB
	v["mining.result_write_s_per_job"] = rp.resultWriteS
	v["mining.result_mb_per_job"] = rp.resultMB
	v["checkpoint.codec_mb_per_s"] = rp.codecMBps
	if len(st.NRRByLevel) > 2 {
		v["core.nrr_l1"], v["core.nrr_l2"] = st.NRRByLevel[1], st.NRRByLevel[2]
	}
	if !counts {
		return
	}
	v["core.rounds"] = float64(st.Rounds)
	v["core.hits"] = float64(st.FrequentHits)
	v["core.skips"] = float64(st.Skips)
	v["core.skip_ratio"] = ratio(float64(st.Skips), float64(st.Rounds))
	v["core.kms_calls"] = float64(st.KMSCalls)
	v["core.ckms_calls"] = float64(st.CKMSCalls)
	v["core.dropped"] = float64(st.Dropped)
	if len(st.PartitionsByLevel) > 2 {
		v["core.partitions_l1"], v["core.partitions_l2"] = float64(st.PartitionsByLevel[1]), float64(st.PartitionsByLevel[2])
	}
}

// timed is the median duration of repeated calls.
type timed struct {
	secs float64
	err  error
}

// timeReps calls f at least 3 times and until 0.2s have passed (at most
// 50 times) and returns the median duration.
func timeReps(f func() error) timed {
	var ds []float64
	start := time.Now()
	for len(ds) < 3 || (time.Since(start) < 200*time.Millisecond && len(ds) < 50) {
		t0 := time.Now()
		if err := f(); err != nil {
			return timed{err: err}
		}
		ds = append(ds, time.Since(t0).Seconds())
	}
	return timed{secs: median(ds)}
}
