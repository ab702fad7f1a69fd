package obs

import (
	"context"
	"log/slog"
	"sync"
	"time"
)

// StageDurationMetric is the histogram family every span aggregates
// into, labeled by stage. Spans are how per-stage timings reach
// /metrics without any log processing.
const StageDurationMetric = "disc_stage_duration_seconds"

// Tracer hands out Spans around mining stages (whole runs, first-level
// partitions, eager bucket closures, jobs). Ending a span does two
// independent things, each optional:
//
//   - observes the duration into the registry's per-stage histogram
//     (StageDurationMetric), when a Registry is set;
//   - emits one structured log/slog record carrying the stage, the
//     duration and the caller's attributes, when a Logger is set — the
//     stream discmine/discserve -trace prints as JSON.
//
// A third half lives on the Observer: when a TraceContext is bound
// (Observer.WithTrace), spans additionally carry trace/span/parent IDs
// and record start/end into the trace's flight recorder.
//
// A nil *Tracer returns a zero Span whose End is a no-op, so call sites
// never branch. Set Registry before the first span ends: each stage's
// histogram is looked up in it once and kept.
type Tracer struct {
	Registry *Registry
	Logger   *slog.Logger

	mu     sync.Mutex
	stages map[string]*Histogram // stage -> its histogram in Registry
}

// stageHistogram returns the stage's duration histogram, resolving it in
// the registry on the stage's first span only: the lookup canonicalises
// labels (allocating) under the registry lock, which an engine ending
// tens of thousands of partition spans per run must not pay per span.
func (t *Tracer) stageHistogram(stage string) *Histogram {
	t.mu.Lock()
	defer t.mu.Unlock()
	h := t.stages[stage]
	if h == nil {
		h = t.Registry.Histogram(StageDurationMetric, "Duration of mining stages by span.",
			DurationBuckets, Label{"stage", stage})
		if t.stages == nil {
			t.stages = map[string]*Histogram{}
		}
		t.stages[stage] = h
	}
	return h
}

// TraceContext is the identity of one trace as seen by one process:
// the trace ID, this process's node name, the ID source spans mint
// from, and the flight recorder events land in. It travels by value
// semantics over the wire (trace ID + parent span ID headers) and by
// pointer within a process. All methods are nil-safe.
type TraceContext struct {
	trace TraceID
	node  string
	src   *IDSource
	rec   *Recorder
}

// NewTraceContext builds a context for trace on node. A nil src gets a
// time-seeded source; a nil rec gets a DefaultRecorderEvents ring.
func NewTraceContext(trace TraceID, node string, src *IDSource, rec *Recorder) *TraceContext {
	if src == nil {
		src = NewIDSource(0)
	}
	if rec == nil {
		rec = NewRecorder(0)
	}
	return &TraceContext{trace: trace, node: node, src: src, rec: rec}
}

// TraceID returns the trace's ID (zero for a nil context).
func (tc *TraceContext) TraceID() TraceID {
	if tc == nil {
		return 0
	}
	return tc.trace
}

// Node returns the node name stamped on this process's records.
func (tc *TraceContext) Node() string {
	if tc == nil {
		return ""
	}
	return tc.node
}

// Recorder returns the trace's flight recorder (nil for a nil context).
func (tc *TraceContext) Recorder() *Recorder {
	if tc == nil {
		return nil
	}
	return tc.rec
}

// NewSpanID mints a span ID from the trace's source.
func (tc *TraceContext) NewSpanID() SpanID {
	if tc == nil {
		return 0
	}
	return tc.src.SpanID()
}

// Event records a structured point-in-time event (queue admit,
// checkpoint write, shard assign/resolve/hedge, breaker transition,
// degrade latch) under the given span (zero for trace-level events).
func (tc *TraceContext) Event(name string, span SpanID, attrs map[string]string) {
	if tc == nil {
		return
	}
	tc.rec.Append(Event{
		Kind:  KindEvent,
		Stage: name,
		Trace: tc.trace,
		Span:  span,
		Node:  tc.node,
		Attrs: attrs,
	})
}

// record stamps the trace ID and node onto ev and appends it.
func (tc *TraceContext) record(ev Event) {
	if tc == nil {
		return
	}
	ev.Trace = tc.trace
	if ev.Node == "" {
		ev.Node = tc.node
	}
	tc.rec.Append(ev)
}

// AddRemoteSpans folds completed span records from another process
// (a worker's shard response) into this trace's recorder, preserving
// their origin node and timestamps. Records from a different trace are
// dropped — a confused worker cannot pollute the timeline.
func (tc *TraceContext) AddRemoteSpans(spans []SpanRecord) {
	if tc == nil {
		return
	}
	want := tc.trace.String()
	for _, sr := range spans {
		if sr.Trace != want {
			continue
		}
		id, ok := ParseSpanID(sr.Span)
		if !ok {
			continue
		}
		var parent SpanID
		if sr.Parent != "" {
			parent, _ = ParseSpanID(sr.Parent)
		}
		tc.rec.Append(Event{
			Kind:   KindSpanEnd,
			Stage:  sr.Stage,
			Trace:  tc.trace,
			Span:   id,
			Parent: parent,
			Node:   sr.Node,
			Time:   sr.Start.Add(time.Duration(sr.DurNS)),
			Dur:    time.Duration(sr.DurNS),
			Attrs:  sr.Attrs,
		})
	}
}

// AddRemoteDropped counts n entries that another process's recorder
// evicted before it shipped its span records here, so the timeline's
// dropped_events covers history lost anywhere in the fleet.
func (tc *TraceContext) AddRemoteDropped(n uint64) {
	if tc == nil {
		return
	}
	tc.rec.addDropped(n)
}

// Span is one timed region. It is a value type: starting and ending a
// span allocates nothing beyond what slog itself needs when a Logger is
// configured and what the flight recorder needs when a trace is bound.
type Span struct {
	t      *Tracer
	tc     *TraceContext
	id     SpanID
	parent SpanID
	stage  string
	attrs  []slog.Attr
	start  time.Time
}

// Start begins a span for stage. The attrs ride along to the log record
// at End; they do not become histogram labels (per-stage cardinality
// stays fixed). Spans started directly on a Tracer carry no trace IDs;
// use Observer.Span under a WithTrace observer for that.
func (t *Tracer) Start(stage string, attrs ...slog.Attr) Span {
	if t == nil {
		return Span{}
	}
	return Span{t: t, stage: stage, attrs: attrs, start: time.Now()}
}

// ID returns the span's ID (zero when no trace is bound).
func (s Span) ID() SpanID { return s.id }

// TraceID returns the ID of the trace the span belongs to.
func (s Span) TraceID() TraceID { return s.tc.TraceID() }

// Live reports whether ending the span will record anything.
func (s Span) Live() bool { return s.t != nil || s.tc != nil }

// End closes the span, recording its duration into the stage histogram,
// the slog stream, and the trace's flight recorder — each when
// configured. Safe on the zero Span.
func (s Span) End() {
	if s.t == nil && s.tc == nil {
		return
	}
	d := time.Since(s.start)
	if s.t != nil {
		if s.t.Registry != nil {
			s.t.stageHistogram(s.stage).Observe(d.Seconds())
		}
		if l := s.t.Logger; l != nil {
			attrs := make([]slog.Attr, 0, len(s.attrs)+5)
			attrs = append(attrs, slog.String("stage", s.stage), slog.Duration("dur", d))
			if s.tc != nil {
				attrs = append(attrs, slog.String("trace_id", s.tc.TraceID().String()),
					slog.String("span_id", s.id.String()))
				if !s.parent.IsZero() {
					attrs = append(attrs, slog.String("parent_span_id", s.parent.String()))
				}
			}
			attrs = append(attrs, s.attrs...)
			l.LogAttrs(context.Background(), slog.LevelInfo, "span", attrs...)
		}
	}
	if s.tc != nil {
		s.tc.record(Event{
			Kind:   KindSpanEnd,
			Stage:  s.stage,
			Span:   s.id,
			Parent: s.parent,
			Dur:    d,
		})
	}
}

// Observer bundles the two halves of the observability substrate — the
// metrics registry and the span tracer — into the single handle that
// Options-style structs carry, plus an optional bound trace context
// that upgrades every span it starts into an ID-carrying, recorded
// span. A nil *Observer is fully inert.
type Observer struct {
	Registry *Registry
	Tracer   *Tracer

	trace  *TraceContext
	parent SpanID
}

// NewObserver returns an observer over a fresh registry whose tracer
// aggregates spans into that same registry. Attach a Logger to the
// Tracer afterwards to also stream span JSON.
func NewObserver() *Observer {
	r := NewRegistry()
	return &Observer{Registry: r, Tracer: &Tracer{Registry: r}}
}

// WithTrace returns a copy of the observer bound to tc: spans started
// on the copy mint IDs under the trace, parent to parent (when the
// call site supplies none), and land in the trace's flight recorder.
// The registry and tracer are shared with the receiver. A nil tc
// returns the receiver unchanged; nil-safe.
func (o *Observer) WithTrace(tc *TraceContext, parent SpanID) *Observer {
	if o == nil || tc == nil {
		return o
	}
	c := *o
	c.trace = tc
	c.parent = parent
	return &c
}

// Trace returns the bound trace context, if any. Nil-safe.
func (o *Observer) Trace() *TraceContext {
	if o == nil {
		return nil
	}
	return o.trace
}

// ParentSpan returns the default parent span ID spans started on this
// observer inherit. Nil-safe.
func (o *Observer) ParentSpan() SpanID {
	if o == nil {
		return 0
	}
	return o.parent
}

// Span starts a span on the observer's tracer, parented to the
// observer's bound parent span; nil-safe.
func (o *Observer) Span(stage string, attrs ...slog.Attr) Span {
	if o == nil {
		return Span{}
	}
	return o.startSpan(stage, o.parent, attrs)
}

// SpanUnder starts a span whose parent is the given span (falling back
// to the observer's bound parent when parent carries no ID); nil-safe.
// This is how the engine threads the partition hierarchy: each
// recursion level passes its own span down as the parent of the next.
func (o *Observer) SpanUnder(parent Span, stage string, attrs ...slog.Attr) Span {
	if o == nil {
		return Span{}
	}
	pid := parent.id
	if pid.IsZero() {
		pid = o.parent
	}
	return o.startSpan(stage, pid, attrs)
}

func (o *Observer) startSpan(stage string, parent SpanID, attrs []slog.Attr) Span {
	sp := Span{t: o.Tracer, stage: stage, attrs: attrs, start: time.Now()}
	if tc := o.trace; tc != nil {
		sp.tc = tc
		sp.id = tc.NewSpanID()
		sp.parent = parent
		tc.record(Event{Kind: KindSpanStart, Stage: stage, Span: sp.id, Parent: parent})
	}
	if sp.t == nil && sp.tc == nil {
		return Span{}
	}
	return sp
}

// Counter returns the named counter from the observer's registry, or a
// detached throwaway counter when the observer (or its registry) is nil
// so call sites stay branch-free.
func (o *Observer) Counter(name, help string, labels ...Label) *Counter {
	if o == nil || o.Registry == nil {
		return &Counter{}
	}
	return o.Registry.Counter(name, help, labels...)
}

// Gauge returns the named gauge from the observer's registry, or a
// detached throwaway gauge when the observer (or its registry) is nil.
func (o *Observer) Gauge(name, help string, labels ...Label) *Gauge {
	if o == nil || o.Registry == nil {
		return &Gauge{}
	}
	return o.Registry.Gauge(name, help, labels...)
}

// Histogram returns the named histogram from the observer's registry,
// or a detached throwaway histogram when the observer (or its registry)
// is nil.
func (o *Observer) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	if o == nil || o.Registry == nil {
		return newHistogram(buckets)
	}
	return o.Registry.Histogram(name, help, buckets, labels...)
}
