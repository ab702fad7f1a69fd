package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"github.com/disc-mining/disc/internal/core"
)

// The paper's counts are exact: two runs at one seed read the same, and
// mine-dense at seed 1 reads the numbers the workload was chosen by.
func TestPaperCountsRepeat(t *testing.T) {
	ctx := context.Background()
	sp := workloads[0].spec
	b, err := genBase(sp, genSeed(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	in := &inputs{delta: sp.delta(false), bases: []*base{b}}
	opts := core.DefaultOptions()
	opts.Workers = 2
	var runs [2]map[string]float64
	for i := range runs {
		rp, err := replay(ctx, in, opts)
		if err != nil {
			t.Fatal(err)
		}
		runs[i] = map[string]float64{}
		rp.into(runs[i], true)
	}
	counts := []string{"core.rounds", "core.hits", "core.skips", "core.kms_calls", "core.ckms_calls",
		"core.dropped", "core.partitions_l1", "core.partitions_l2", "core.nrr_l1", "core.nrr_l2"}
	for _, k := range counts {
		if runs[0][k] != runs[1][k] {
			t.Errorf("%s: %v then %v", k, runs[0][k], runs[1][k])
		}
	}
	want := map[string]float64{"core.rounds": 2020, "core.hits": 408, "core.skips": 1612,
		"core.kms_calls": 7486, "core.ckms_calls": 13648, "core.partitions_l1": 1000, "core.partitions_l2": 29663}
	for k, v := range want {
		if runs[0][k] != v {
			t.Errorf("mine-dense seed 1 %s = %v, want %v", k, runs[0][k], v)
		}
	}
}

// The servers' probe-job counts repeat exactly too. This starts real
// discserve processes, built from the repository.
func TestServerCountsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and starts discserve")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	dir := t.TempDir()
	bin := filepath.Join(dir, "discserve")
	build := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/discserve")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building discserve: %v\n%s", err, out)
	}
	o := &options{discserve: bin, work: dir}
	for _, w := range workloads[1:] {
		sp := w.spec
		sp.bases = 1
		in, err := prepare(ctx, sp, 1, true, 2)
		if err != nil {
			t.Fatal(err)
		}
		var runs [2]map[string]float64
		for i := range runs {
			o.workload = w.name
			sys, err := w.start(ctx, o, in, i)
			if err != nil {
				t.Fatal(err)
			}
			runs[i] = map[string]float64{}
			err = sys.(*served).probeCounts(ctx, runs[i])
			sys.close()
			if err != nil {
				t.Fatal(err)
			}
		}
		if !reflect.DeepEqual(runs[0], runs[1]) {
			t.Errorf("%s: probe counts differ:\n%v\n%v", w.name, runs[0], runs[1])
		}
		if runs[0]["core.rounds"] == 0 {
			t.Errorf("%s: probe job recorded no rounds: %v", w.name, runs[0])
		}
	}
}

// A workload below the support floor is refused before anything runs.
func TestLowSupportRefused(t *testing.T) {
	_, err := prepare(context.Background(), spec{ncust: 300, minsup: 0.005, bases: 1}, 1, true, 1)
	if err == nil || !strings.Contains(err.Error(), "refused") {
		t.Fatalf("prepare at δ=1 returned %v, want a refusal", err)
	}
}

// BENCHMARK.json names exactly the workloads and metrics this program
// reports, with the same units.
func TestBenchmarkFileMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d here", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: file has %q (%q), program %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d here", kind, len(got), len(want))
			return
		}
		for i, m := range got {
			if (metricDef{m.Name, m.Unit, m.Better}) != want[i] {
				t.Errorf("%s %d: file has %v, program %v", kind, i, m, want[i])
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEndMetrics)
	check("per_layer", doc.PerLayer, perLayerMetrics)
}

func TestTail(t *testing.T) {
	xs := make([]float64, 40)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if got := tailOf(xs); got.value != 30 || got.percentile != 75 || got.beyond != 10 {
		t.Errorf("tail of 1..40 = %+v, want p75 = 30 with 10 beyond", got)
	}
	for _, n := range []int{5, 11, 19} {
		if got := tailOf(xs[:n]); got.value != float64(n) || got.beyond != 0 {
			t.Errorf("tail of 1..%d = %+v, want the maximum", n, got)
		}
	}
	if got := tailOf(xs[:20]); got.value != 10 || got.beyond != 10 {
		t.Errorf("tail of 1..20 = %+v, want p50 = 10 with 10 beyond", got)
	}
}

func TestHistMedian(t *testing.T) {
	// 10 samples in (0, 1], 10 in (1, 2]: the median sits at the bound.
	if got := histMedian([]float64{1, 2}, []float64{10, 20, 20}); got != 1 {
		t.Errorf("median = %v, want 1", got)
	}
	if got := histMedian([]float64{1, 2}, []float64{0, 20, 20}); got != 1.5 {
		t.Errorf("median = %v, want 1.5", got)
	}
}

// The profile decoder reads what runtime/pprof writes.
func TestParseCPUProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	x := 0
	for t0 := time.Now(); time.Since(t0) < 300*time.Millisecond; {
		x += len(strings.Repeat("ab", 64))
	}
	pprof.StopCPUProfile()
	samples, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) == 0 || x == 0 {
		t.Fatal("no samples in a 300ms busy loop")
	}
	for _, s := range samples {
		if len(s.stack) == 0 || s.ns <= 0 {
			t.Fatalf("sample without stack or time: %+v", s)
		}
	}
}

func TestPkgOf(t *testing.T) {
	for fn, want := range map[string]string{
		"github.com/disc-mining/disc/internal/seq.Compare":              "github.com/disc-mining/disc/internal/seq",
		"github.com/disc-mining/disc/internal/core.(*engine).run.func1": "github.com/disc-mining/disc/internal/core",
		"slices.SortFunc[go.shape.[]int,go.shape.int]":                  "slices",
		"net/http.(*conn).serve":                                        "net/http",
		"runtime.mallocgc":                                              "runtime",
	} {
		if got := pkgOf(fn); got != want {
			t.Errorf("pkgOf(%q) = %q, want %q", fn, got, want)
		}
	}
}
