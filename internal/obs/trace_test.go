package obs

import (
	"encoding/json"
	"log/slog"
	"strings"
	"sync"
	"testing"
)

// TestNilTracerAndObserverInert pins the nil-safety contract: every
// entry point on a nil tracer/observer is a usable no-op.
func TestNilTracerAndObserverInert(t *testing.T) {
	var tr *Tracer
	tr.Start("mine").End() // must not panic

	var o *Observer
	o.Span("mine").End()
	o.Counter("c", "h").Inc()
	o.Gauge("g", "h").Set(1)
	o.Histogram("h", "h", DurationBuckets).Observe(1)
}

// TestSpanAggregatesIntoHistogram checks the span → per-stage histogram
// path that feeds /metrics.
func TestSpanAggregatesIntoHistogram(t *testing.T) {
	o := NewObserver()
	o.Span("partition", slog.Int("level", 0)).End()
	o.Span("partition").End()
	o.Span("mine").End()

	h := o.Registry.Histogram(StageDurationMetric, "", DurationBuckets, Label{"stage", "partition"})
	if got := h.Count(); got != 2 {
		t.Errorf("partition span count = %d, want 2", got)
	}
	if got := o.Registry.Histogram(StageDurationMetric, "", DurationBuckets, Label{"stage", "mine"}).Count(); got != 1 {
		t.Errorf("mine span count = %d, want 1", got)
	}
	var b strings.Builder
	if err := o.Registry.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `disc_stage_duration_seconds_count{stage="partition"} 2`) {
		t.Errorf("exposition missing stage histogram:\n%s", b.String())
	}
}

// TestSpanStageHistogramConcurrent: spans of several stages ended from
// many goroutines at once each land in their stage's histogram exactly
// once, and once a stage's histogram is resolved, opening and ending a
// span of that stage allocates nothing.
func TestSpanStageHistogramConcurrent(t *testing.T) {
	o := NewObserver()
	stages := []string{"partition_l1", "partition_l2", "eager_buckets"}
	const goroutines, perG = 8, 300 // perG a multiple of len(stages)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				o.Span(stages[(g+i)%len(stages)]).End()
			}
		}(g)
	}
	wg.Wait()
	for _, st := range stages {
		h := o.Registry.Histogram(StageDurationMetric, "", DurationBuckets, Label{"stage", st})
		if got := h.Count(); got != goroutines*perG/int64(len(stages)) {
			t.Errorf("stage %s: %d spans recorded, want %d", st, got, goroutines*perG/len(stages))
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { o.Span("partition_l2").End() }); allocs != 0 {
		t.Errorf("a span of a resolved stage allocated %.0f times, want 0", allocs)
	}
}

// TestSpanLogsJSON checks the slog emission half: one JSON record per
// span carrying stage, duration, and the caller's attributes.
func TestSpanLogsJSON(t *testing.T) {
	var buf strings.Builder
	o := NewObserver()
	o.Tracer.Logger = slog.New(slog.NewJSONHandler(&buf, nil))

	o.Span("eager_buckets", slog.Int("level", 2), slog.String("key", "7")).End()

	line := strings.TrimSpace(buf.String())
	var rec map[string]any
	if err := json.Unmarshal([]byte(line), &rec); err != nil {
		t.Fatalf("span record is not JSON: %v\n%s", err, line)
	}
	if rec["msg"] != "span" || rec["stage"] != "eager_buckets" {
		t.Errorf("record = %v", rec)
	}
	if rec["level"] == nil || rec["key"] != "7" {
		t.Errorf("caller attrs missing: %v", rec)
	}
	if _, ok := rec["dur"]; !ok {
		t.Errorf("duration missing: %v", rec)
	}
}
