// Command discbench is the repository benchmark. It runs one named
// workload against the DISC miner, measures it from outside the program,
// checks every result against an independently computed reference, and
// prints one JSON result as the last line of its standard output. Run it
// from the repository root through run.sh, which builds it:
//
//	bash discbench/run.sh --workload mine-dense --seed 1 --seconds 25 --trace 0
//
// Workloads (see workloads below for the exact shapes):
//
//   - mine-dense: Fig 9-shaped in-process mines through the library path
//     discmine takes; the engine does almost all the work.
//   - serve-mix: a standalone discserve driven by closed-loop HTTP
//     clients; every 4th submission re-posts an earlier body and is
//     answered from the result cache.
//   - fleet-2w: a discserve coordinator with a shard ledger and two
//     workers, all child processes, fed 1.46 MB bodies by one client.
//
// With --trace 0 the run reports the end-to-end metrics. With --trace 1
// it reports per-layer metrics, every one taken from outside the
// program: timed calls into the layers' public functions on the
// workload's exact inputs, the servers' /metrics, job timelines and
// -pprof CPU profiles, and /proc/<pid> of the child processes.
//
// Every input derives from --seed. Before anything is timed, each
// distinct database is mined once on an independent path (PrefixSpan
// with pseudo-projection for mine-dense, a local in-process core.Miner
// for the server workloads) and the SHA-256 of its canonical result is
// kept; a job whose result differs counts as failed and makes the
// command exit non-zero.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
)

// workload is one named set of inputs and the system that serves them.
type workload struct {
	name    string
	why     string
	spec    spec
	server  bool
	clients int // closed-loop clients, capped at nproc
	setups  int // set-ups per untraced run; setup_s is their median
	start   func(ctx context.Context, o *options, in *inputs, n int) (system, error)
}

var workloads = []workload{
	{
		name: "mine-dense",
		why:  "Fig 9-shaped in-process mines (DenseDefaults(1000), minsup 0.0075): the engine does almost all the work",
		spec: spec{dense: true, ncust: 1000, minsup: 0.0075, bases: 4, oracle: "pseudo"},
		// One mine at a time; each mine uses two partition workers.
		clients: 1, setups: 3,
		start: func(_ context.Context, _ *options, in *inputs, _ int) (system, error) {
			return newInProcess(in, 2), nil
		},
	},
	{
		name:   "serve-mix",
		why:    "standalone discserve, 2 HTTP clients, 43 KB bodies; every 4th re-posts one, so parse, fingerprint and result cache share CPU with mining",
		spec:   spec{ncust: 300, minsup: 0.02, bases: 15, oracle: "local"},
		server: true, clients: 2, setups: 5,
		start: func(ctx context.Context, o *options, in *inputs, n int) (system, error) {
			return startStandalone(ctx, o.discserve, o.dir(n), in, 4)
		},
	},
	{
		name:   "fleet-2w",
		why:    "coordinator with shard ledger and 2 workers, 1.46 MB bodies: every shard re-ships and re-parses the database and every transition fsyncs a ledger",
		spec:   spec{ncust: 10000, minsup: 0.0025, bases: 3, oracle: "local"},
		server: true, clients: 1, setups: 3,
		start: func(ctx context.Context, o *options, in *inputs, n int) (system, error) {
			return startFleet(ctx, o.discserve, o.dir(n), in, 4, 2)
		},
	},
}

// options are the command-line settings of one run.
type options struct {
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	discserve string // discserve binary
	work      string // scratch directory for server state
}

// run.sh builds into buildDir, relative to the repository root the
// benchmark runs from.
const buildDir = ".bench_build"

// dir is the state directory of the n-th system a run starts.
func (o *options) dir(n int) string {
	return filepath.Join(o.work, fmt.Sprintf("%s-%d", o.workload, n))
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload to run: mine-dense, serve-mix or fleet-2w")
	flag.Int64Var(&o.seed, "seed", 1, "seed every input derives from")
	flag.Float64Var(&o.seconds, "seconds", 25, "length of the measured window in seconds")
	flag.IntVar(&trace, "trace", 0, "0 reports end-to-end metrics, 1 per-layer metrics from a separate traced run")
	flag.Parse()
	o.trace = trace == 1
	o.discserve = filepath.Join(buildDir, "bin", "discserve")
	work, err := filepath.Abs(filepath.Join(buildDir, "work"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "discbench:", err)
		os.Exit(1)
	}
	o.work = work

	// The whole run must end within 180s; stop everything well before.
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	res, notes, err := run(ctx, &o)
	stop()
	cancel()
	_ = os.RemoveAll(o.work) // best effort: the next run starts from a fresh directory anyway
	if err != nil {
		fmt.Fprintln(os.Stderr, "discbench:", err)
		os.Exit(1)
	}
	for _, n := range notes {
		fmt.Println(n)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "discbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func run(ctx context.Context, o *options) (*result, []string, error) {
	var w workload
	for _, wl := range workloads {
		if wl.name == o.workload {
			w = wl
		}
	}
	switch {
	case w.name == "":
		return nil, nil, fmt.Errorf("unknown workload %q", o.workload)
	case o.seconds <= 0:
		return nil, nil, errors.New("--seconds must be positive")
	}
	if err := os.RemoveAll(o.work); err != nil {
		return nil, nil, err
	}
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		return nil, nil, err
	}
	procs := min(runtime.NumCPU(), runtime.GOMAXPROCS(0))
	in, err := prepare(ctx, w.spec, o.seed, w.server, procs)
	if err != nil {
		return nil, nil, err
	}
	// Drop what the reference mines left behind before anything is
	// measured, so the in-process peak RSS covers set-up and load only.
	runtime.GC()
	debug.FreeOSMemory()
	w.clients = min(w.clients, procs)
	notes := []string{contextNote(o, &w, in)}
	if o.trace {
		res, more, err := traced(ctx, o, &w, in)
		return res, append(notes, more...), err
	}
	res, more, err := untraced(ctx, o, &w, in)
	return res, append(notes, more...), err
}

// endToEndMetrics are the metrics of --trace 0 runs, in report order.
var endToEndMetrics = []metricDef{
	{"setup_s", "s", "lower"},
	{"jobs_per_s", "1/s", "higher"},
	{"job_s_p50", "s", "lower"},
	{"job_s_tail", "s", "lower"},
	{"cpu_s_per_job", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

type metricDef struct{ name, unit, better string }

// untraced sets the system up several times, keeps the last one, and
// measures closed-loop load on it.
func untraced(ctx context.Context, o *options, w *workload, in *inputs) (*result, []string, error) {
	var (
		sys    system
		setups []float64
	)
	defer func() {
		if sys != nil {
			sys.close()
		}
	}()
	for n := 0; n < w.setups; n++ {
		if sys != nil {
			sys.close()
			sys = nil
		}
		if !w.server && n == w.setups-1 {
			if err := resetPeakRSS(); err != nil {
				return nil, nil, fmt.Errorf("resetting peak RSS: %w", err)
			}
		}
		s, secs, err := setUp(ctx, func(ctx context.Context) (system, error) { return w.start(ctx, o, in, n) })
		if err != nil {
			return nil, nil, fmt.Errorf("set-up %d: %w", n+1, err)
		}
		sys = s
		setups = append(setups, secs)
	}
	var next atomic.Int64
	win, err := drive(ctx, sys, w.clients, o.seconds, &next)
	if err != nil {
		return nil, nil, err
	}
	rss, err := sys.peakRSSMB()
	if err != nil {
		return nil, nil, err
	}
	done := float64(len(win.lats))
	tl := tailOf(win.lats)
	values := map[string]float64{
		"setup_s":       median(setups),
		"jobs_per_s":    ratio(done, win.seconds),
		"job_s_p50":     median(win.lats),
		"job_s_tail":    tl.value,
		"cpu_s_per_job": ratio(win.cpu, done),
		"peak_rss_mb":   rss,
	}
	res := report(win, values, endToEndMetrics)
	notes := []string{}
	for _, d := range endToEndMetrics {
		notes = append(notes, fmt.Sprintf("%-14s %12.6g %s", d.name, values[d.name], d.unit))
	}
	notes = append(notes,
		fmt.Sprintf("job_s_tail is p%.1f of %d jobs, %d beyond it", tl.percentile, len(win.lats), tl.beyond),
		fmt.Sprintf("failed_frac    %12.6g frac (%d of %d attempted; %d result mismatches)",
			ratio(float64(win.failed), float64(win.attempted)), win.failed, win.attempted, win.mismatches),
		fmt.Sprintf("setup_s samples %v", setups))
	if len(win.lats) <= 40 {
		notes = append(notes, fmt.Sprintf("job_s samples %v", win.lats))
	}
	if win.firstErr != nil {
		notes = append(notes, "first failure: "+win.firstErr.Error())
	}
	return res, notes, nil
}

// report builds the result line from a window and the metric values.
func report(win window, values map[string]float64, defs []metricDef) *result {
	res := &result{
		Correct:   win.mismatches == 0,
		Attempted: win.attempted,
		Failed:    win.failed,
		Metrics:   map[string]metric{},
	}
	for _, d := range defs {
		v := values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	return res
}

// contextNote records what the numbers were measured on: toolchain,
// processors, commit and the Go line counts of the repository.
func contextNote(o *options, w *workload, in *inputs) string {
	src, test := goLines(".")
	info := map[string]any{
		"workload":   w.name,
		"seed":       o.seed,
		"delta":      in.delta,
		"go":         runtime.Version(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"commit":     commit("."),
		"go_lines":   src,
		"test_lines": test,
	}
	b, _ := json.Marshal(info) // a map of plain values always encodes
	return "context " + string(b)
}

// goLines counts the lines of the repository's Go files outside the
// benchmark and its build directory, split into non-test and test files.
func goLines(root string) (src, test int) {
	_ = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return nil // an unreadable entry is left out of the count
		}
		if d.IsDir() {
			switch d.Name() {
			case "discbench", buildDir, ".git":
				return filepath.SkipDir
			}
			return nil
		}
		if filepath.Ext(path) != ".go" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return nil
		}
		n := bytes.Count(b, []byte{'\n'})
		if strings.HasSuffix(path, "_test.go") {
			test += n
		} else {
			src += n
		}
		return nil
	})
	return src, test
}

// commit returns the checked-out commit when root is a git work tree
// (read straight from .git, without running git), else "unknown".
func commit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	if name, ok := strings.CutPrefix(ref, "ref: "); ok {
		ref = "unknown"
		if b, err := os.ReadFile(filepath.Join(root, ".git", name)); err == nil {
			ref = strings.TrimSpace(string(b))
		} else if b, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs")); err == nil {
			for _, l := range strings.Split(string(b), "\n") {
				if h, n, ok := strings.Cut(l, " "); ok && n == name {
					ref = h
				}
			}
		}
	}
	return ref
}
