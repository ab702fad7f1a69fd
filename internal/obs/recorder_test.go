package obs

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestIDParseRoundTrip(t *testing.T) {
	src := NewIDSource(7)
	for i := 0; i < 100; i++ {
		tr, sp := src.TraceID(), src.SpanID()
		if tr.IsZero() || sp.IsZero() {
			t.Fatalf("minted zero ID (trace=%v span=%v)", tr, sp)
		}
		if len(tr.String()) != 16 || len(sp.String()) != 16 {
			t.Fatalf("IDs must render as 16 hex digits, got %q / %q", tr, sp)
		}
		if got, ok := ParseTraceID(tr.String()); !ok || got != tr {
			t.Fatalf("trace round trip: %q -> (%v, %v)", tr, got, ok)
		}
		if got, ok := ParseSpanID(sp.String()); !ok || got != sp {
			t.Fatalf("span round trip: %q -> (%v, %v)", sp, got, ok)
		}
	}
	for _, bad := range []string{"", "xyz", "0000000000000000", "1234", "00000000000000001", "g000000000000000"} {
		if _, ok := ParseTraceID(bad); ok {
			t.Errorf("ParseTraceID(%q) accepted", bad)
		}
	}
}

func TestIDSourceSeededDeterministic(t *testing.T) {
	a, b := NewIDSource(42), NewIDSource(42)
	for i := 0; i < 20; i++ {
		if x, y := a.SpanID(), b.SpanID(); x != y {
			t.Fatalf("same seed diverged at draw %d: %v vs %v", i, x, y)
		}
	}
}

func TestRecorderRingEviction(t *testing.T) {
	// Capacity 8 splits into a 6-slot span ring and a 2-slot event ring;
	// each evicts its own oldest entries independently.
	r := NewRecorder(8)
	for i := 0; i < 20; i++ {
		r.Append(Event{Kind: KindSpanEnd, Stage: fmt.Sprintf("s%d", i)})
	}
	for i := 0; i < 3; i++ {
		r.Append(Event{Kind: KindEvent, Stage: fmt.Sprintf("e%d", i)})
	}
	if r.Len() != 8 || r.Cap() != 8 {
		t.Fatalf("ring len/cap = %d/%d, want 8/8", r.Len(), r.Cap())
	}
	// 20 spans into 6 slots drops 14; 3 events into 2 slots drops 1.
	if r.Dropped() != 15 {
		t.Fatalf("dropped = %d, want 15", r.Dropped())
	}
	evs := r.Events()
	// Oldest retained span is seq 14; Seq keeps counting across evictions
	// so the gap from 0 reveals exactly how much history was lost. The
	// merged snapshot is in ascending-seq (append) order: spans 14..19,
	// then events e1 (seq 21) and e2 (seq 22).
	want := []struct {
		seq   uint64
		stage string
	}{{14, "s14"}, {15, "s15"}, {16, "s16"}, {17, "s17"}, {18, "s18"}, {19, "s19"}, {21, "e1"}, {22, "e2"}}
	if len(evs) != len(want) {
		t.Fatalf("snapshot holds %d entries, want %d: %+v", len(evs), len(want), evs)
	}
	for i, ev := range evs {
		if ev.Seq != want[i].seq || ev.Stage != want[i].stage {
			t.Fatalf("entry %d = seq %d %q, want seq %d %q", i, ev.Seq, ev.Stage, want[i].seq, want[i].stage)
		}
	}
}

// TestRecorderSpanFloodKeepsLifecycleEvents pins the reason the recorder
// is two rings and not one: a partition-heavy job emits thousands of
// span records, and they must never evict the handful of lifecycle
// events (queue admit, shard assign) that make a timeline debuggable.
func TestRecorderSpanFloodKeepsLifecycleEvents(t *testing.T) {
	r := NewRecorder(64)
	r.Append(Event{Kind: KindEvent, Stage: "queue-admit"})
	for i := 0; i < 10000; i++ {
		r.Append(Event{Kind: KindSpanEnd, Stage: "partition_l2"})
	}
	var found bool
	for _, ev := range r.Events() {
		if ev.Kind == KindEvent && ev.Stage == "queue-admit" {
			found = true
		}
	}
	if !found {
		t.Fatal("span flood evicted the queue-admit lifecycle event")
	}
	if r.Dropped() == 0 {
		t.Fatal("flood of 10000 spans into a 64-entry recorder must report drops")
	}
}

func TestRecorderPreservesCallerTime(t *testing.T) {
	r := NewRecorder(8)
	remote := time.Date(2020, 1, 2, 3, 4, 5, 0, time.UTC)
	r.Append(Event{Kind: KindSpanEnd, Time: remote})
	r.Append(Event{Kind: KindEvent})
	evs := r.Events()
	if !evs[0].Time.Equal(remote) {
		t.Fatalf("caller-set time overwritten: %v", evs[0].Time)
	}
	if evs[1].Time.IsZero() {
		t.Fatal("zero time not stamped")
	}
}

func TestRecorderNilSafe(t *testing.T) {
	var r *Recorder
	r.Append(Event{})
	if r.Events() != nil || r.Len() != 0 || r.Cap() != 0 || r.Dropped() != 0 {
		t.Fatal("nil recorder must be inert")
	}
	var tc *TraceContext
	tc.Event("x", 0, nil)
	tc.AddRemoteSpans([]SpanRecord{{}})
	tc.AddRemoteDropped(3)
	if tc.Timeline("j") != nil {
		t.Fatal("nil trace context must yield nil timeline")
	}
}

// TestRecorderBoundedUnderHammer is the -race proof that the flight
// recorder never grows and never blocks: many writers hammer a tiny
// ring while readers snapshot it, and at the end the ring holds exactly
// its capacity with every other append accounted as dropped.
func TestRecorderBoundedUnderHammer(t *testing.T) {
	const (
		capacity = 64
		writers  = 8
		appends  = 5000
	)
	r := NewRecorder(capacity)
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for i := 0; i < 4; i++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if evs := r.Events(); len(evs) > capacity {
					t.Errorf("snapshot holds %d events, cap is %d", len(evs), capacity)
					return
				}
			}
		}()
	}
	var writersWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writersWG.Add(1)
		go func(w int) {
			defer writersWG.Done()
			for i := 0; i < appends; i++ {
				// Mix kinds so both eviction domains overflow.
				kind := KindSpanEnd
				if i%4 == 0 {
					kind = KindEvent
				}
				r.Append(Event{Kind: kind, Stage: "hammer", Node: fmt.Sprint(w)})
			}
		}(w)
	}
	writersWG.Wait()
	close(stop)
	readers.Wait()
	if r.Len() != capacity || r.Cap() != capacity {
		t.Fatalf("ring len/cap = %d/%d, want %d/%d", r.Len(), r.Cap(), capacity, capacity)
	}
	if want := uint64(writers*appends - capacity); r.Dropped() != want {
		t.Fatalf("dropped = %d, want %d", r.Dropped(), want)
	}
	evs := r.Events()
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq <= evs[i-1].Seq {
			t.Fatalf("snapshot out of append order at %d: seq %d then %d", i, evs[i-1].Seq, evs[i].Seq)
		}
	}
}

func TestAddRemoteSpansFiltersForeignTrace(t *testing.T) {
	src := NewIDSource(3)
	tc := NewTraceContext(src.TraceID(), "coord", src, NewRecorder(16))
	start := time.Date(2021, 5, 6, 7, 8, 9, 0, time.UTC)
	tc.AddRemoteSpans([]SpanRecord{
		{Trace: tc.TraceID().String(), Span: "00000000000000aa", Parent: "00000000000000bb",
			Stage: "shard_worker", Node: "w1", Start: start, DurNS: int64(time.Second)},
		{Trace: "ffffffffffffffff", Span: "00000000000000cc", Stage: "imposter", Node: "evil"},
		{Trace: tc.TraceID().String(), Span: "not-an-id", Stage: "garbled"},
	})
	spans := tc.Recorder().Spans()
	if len(spans) != 1 {
		t.Fatalf("want exactly the matching span folded in, got %d: %+v", len(spans), spans)
	}
	sp := spans[0]
	if sp.Stage != "shard_worker" || sp.Node != "w1" || sp.Parent != "00000000000000bb" {
		t.Fatalf("folded span mangled: %+v", sp)
	}
	if !sp.Start.Equal(start) || sp.DurNS != int64(time.Second) {
		t.Fatalf("remote timestamps not preserved: %+v", sp)
	}
}

func TestAddRemoteDroppedCountsInTimeline(t *testing.T) {
	src := NewIDSource(5)
	tc := NewTraceContext(src.TraceID(), "coord", src, NewRecorder(16))
	tc.AddRemoteDropped(7)
	tc.AddRemoteDropped(0)
	if got := tc.Timeline("j").Dropped; got != 7 {
		t.Fatalf("dropped_events = %d, want the 7 a remote recorder evicted", got)
	}
}

func TestTraceContextTimelineAssembly(t *testing.T) {
	src := NewIDSource(11)
	tc := NewTraceContext(src.TraceID(), "coord", src, NewRecorder(32))
	o := NewObserver().WithTrace(tc, 0)
	root := o.Span("job")
	tc.Event("queue-admit", root.ID(), map[string]string{"job": "j1"})
	child := o.SpanUnder(root, "shard")
	child.End()
	root.End()

	tl := tc.Timeline("j1")
	if tl.TraceID != tc.TraceID().String() || tl.JobID != "j1" {
		t.Fatalf("timeline identity wrong: %+v", tl)
	}
	if len(tl.Spans) != 2 {
		t.Fatalf("want 2 completed spans, got %d", len(tl.Spans))
	}
	byStage := map[string]SpanRecord{}
	for _, sp := range tl.Spans {
		if sp.Trace != tl.TraceID {
			t.Fatalf("span %q carries trace %q, want %q", sp.Stage, sp.Trace, tl.TraceID)
		}
		byStage[sp.Stage] = sp
	}
	if byStage["shard"].Parent != byStage["job"].Span {
		t.Fatalf("shard span parent %q, want job span %q", byStage["shard"].Parent, byStage["job"].Span)
	}
	if len(tl.Events) != 1 || tl.Events[0].Name != "queue-admit" || tl.Events[0].Span != byStage["job"].Span {
		t.Fatalf("events wrong: %+v", tl.Events)
	}
	// The schema is a stable JSON contract — CI curls it and greps keys.
	b, err := json.Marshal(tl)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"trace_id"`, `"job_id"`, `"spans"`, `"events"`, `"dropped_events"`, `"span_id"`, `"stage"`, `"duration_ns"`} {
		if !strings.Contains(string(b), key) {
			t.Errorf("timeline JSON lacks %s:\n%s", key, b)
		}
	}
}

func TestUnregisterRemovesSeries(t *testing.T) {
	r := NewRegistry()
	r.Gauge("disc_test_gauge", "help.", Label{"worker", "a"}).Set(1)
	r.Gauge("disc_test_gauge", "help.", Label{"worker", "b"}).Set(2)
	if !r.Unregister("disc_test_gauge", Label{"worker", "a"}) {
		t.Fatal("Unregister of a live series returned false")
	}
	text := renderText(t, r)
	if strings.Contains(text, `worker="a"`) {
		t.Fatalf("series a still renders:\n%s", text)
	}
	if !strings.Contains(text, `worker="b"`) {
		t.Fatalf("series b vanished with a:\n%s", text)
	}
	// Removing the last child removes the whole family (HELP/TYPE lines).
	if !r.Unregister("disc_test_gauge", Label{"worker", "b"}) {
		t.Fatal("Unregister of series b returned false")
	}
	if text := renderText(t, r); strings.Contains(text, "disc_test_gauge") {
		t.Fatalf("empty family still renders:\n%s", text)
	}
	// Unknown names and labels are a polite no.
	if r.Unregister("disc_test_gauge", Label{"worker", "a"}) || r.Unregister("nope") {
		t.Fatal("Unregister invented a series")
	}
	// A detached handle keeps working without rendering.
	g := r.Gauge("disc_test_gauge2", "help.", Label{"worker", "c"})
	r.Unregister("disc_test_gauge2", Label{"worker", "c"})
	g.Set(9) // must not panic
}

func renderText(t *testing.T, r *Registry) string {
	t.Helper()
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}
