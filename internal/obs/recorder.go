// The flight recorder: a bounded, per-trace record of span start/end
// entries and structured events. One Recorder lives for the lifetime of
// one trace (one job); every process that works on the trace appends to
// its own recorder and ships completed span records back to the
// coordinator, which folds them into the job's recorder so a single
// fleet-wide timeline can be assembled.
//
// The recorder never blocks the mining hot path and never grows: it is
// two ring buffers that evict independently — one for span records
// (numerous: every partition the engine times), one for lifecycle
// events (rare: queue admit, shard assign/resolve, checkpoint write,
// breaker transition). When a ring is full its oldest entry is evicted
// and a dropped counter advances, so a pathological trace costs a fixed
// amount of memory and the timeline says exactly how much history it
// lost — and a partition-heavy job can never flush its own lifecycle
// out of the record, because spans only ever evict spans.
package obs

import (
	"sync"
	"time"
)

// DefaultRecorderEvents is the total ring capacity used when a
// TraceContext is built without an explicit bound. Sized to hold every
// entry of a typical sharded job (tens of spans per shard, a handful of
// lifecycle events) with generous headroom.
const DefaultRecorderEvents = 4096

// EventKind classifies a recorder entry.
type EventKind uint8

const (
	// KindSpanStart marks the opening of a span.
	KindSpanStart EventKind = iota
	// KindSpanEnd marks the close of a span and carries its duration.
	KindSpanEnd
	// KindEvent is a point-in-time structured event (queue admit,
	// checkpoint write, shard assign/resolve/hedge, breaker
	// transition, degrade latch).
	KindEvent
)

// String returns the JSON/wire name of the kind.
func (k EventKind) String() string {
	switch k {
	case KindSpanStart:
		return "span-start"
	case KindSpanEnd:
		return "span-end"
	default:
		return "event"
	}
}

// Event is one recorder entry. Seq and Mono are stamped by Append:
// Seq increases monotonically for the life of the recorder (it keeps
// counting across evictions, so gaps reveal loss), and Mono is the
// monotonic-clock offset from the recorder's epoch, immune to wall
// clock steps.
type Event struct {
	Seq    uint64
	Mono   time.Duration
	Time   time.Time
	Kind   EventKind
	Stage  string // span stage, or event name for KindEvent
	Trace  TraceID
	Span   SpanID
	Parent SpanID
	Node   string
	Dur    time.Duration     // KindSpanEnd only
	Attrs  map[string]string // optional structured payload
}

// ringBuf is one bounded eviction domain of the recorder.
type ringBuf struct {
	buf     []Event
	next    int // next write position once full
	full    bool
	dropped uint64
}

func newRingBuf(capacity int) ringBuf {
	return ringBuf{buf: make([]Event, 0, capacity)}
}

func (rb *ringBuf) append(ev Event) {
	if !rb.full {
		rb.buf = append(rb.buf, ev)
		if len(rb.buf) == cap(rb.buf) {
			rb.full = true
		}
		return
	}
	rb.buf[rb.next] = ev
	rb.next = (rb.next + 1) % len(rb.buf)
	rb.dropped++
}

// snapshot returns the retained entries in append order (oldest first).
func (rb *ringBuf) snapshot() []Event {
	out := make([]Event, 0, len(rb.buf))
	if rb.full {
		out = append(out, rb.buf[rb.next:]...)
		out = append(out, rb.buf[:rb.next]...)
	} else {
		out = append(out, rb.buf...)
	}
	return out
}

// Recorder is the bounded per-trace record. All methods are safe for
// concurrent use; a nil *Recorder is inert.
type Recorder struct {
	mu     sync.Mutex
	epoch  time.Time
	seq    uint64
	spans  ringBuf // KindSpanStart / KindSpanEnd entries
	events ringBuf // KindEvent entries, evicted independently
}

// NewRecorder returns a recorder holding at most capacity entries in
// total; capacity <= 0 selects DefaultRecorderEvents. A quarter of the
// capacity (at least one slot) is reserved for lifecycle events, the
// rest holds span records.
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultRecorderEvents
	}
	eventCap := capacity / 4
	if eventCap < 1 {
		eventCap = 1
	}
	spanCap := capacity - eventCap
	if spanCap < 1 {
		spanCap = 1
	}
	return &Recorder{epoch: time.Now(),
		spans: newRingBuf(spanCap), events: newRingBuf(eventCap)}
}

// Append stamps and stores ev in its kind's ring, evicting that ring's
// oldest entry when it is full. ev.Time is preserved when the caller
// set it (remote span records keep their origin timestamps); otherwise
// it is stamped now. Nil-safe.
func (r *Recorder) Append(ev Event) {
	if r == nil {
		return
	}
	now := time.Now()
	if ev.Time.IsZero() {
		ev.Time = now
	}
	r.mu.Lock()
	ev.Seq = r.seq
	r.seq++
	ev.Mono = now.Sub(r.epoch)
	if ev.Kind == KindEvent {
		r.events.append(ev)
	} else {
		r.spans.append(ev)
	}
	r.mu.Unlock()
}

// Events returns a snapshot of the retained entries of both rings,
// merged in append order (ascending Seq). Nil-safe.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	sp, evs := r.spans.snapshot(), r.events.snapshot()
	r.mu.Unlock()
	out := make([]Event, 0, len(sp)+len(evs))
	for len(sp) > 0 && len(evs) > 0 {
		if sp[0].Seq < evs[0].Seq {
			out = append(out, sp[0])
			sp = sp[1:]
		} else {
			out = append(out, evs[0])
			evs = evs[1:]
		}
	}
	out = append(out, sp...)
	out = append(out, evs...)
	return out
}

// Dropped reports how many entries were evicted across both rings to
// keep the recorder bounded. Nil-safe.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.spans.dropped + r.events.dropped
}

// addDropped counts n span entries lost before they reached this
// recorder (a remote recorder's evictions). Nil-safe.
func (r *Recorder) addDropped(n uint64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans.dropped += n
	r.mu.Unlock()
}

// Len reports the number of retained entries. Nil-safe.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans.buf) + len(r.events.buf)
}

// Cap reports the total capacity across both rings. Nil-safe.
func (r *Recorder) Cap() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return cap(r.spans.buf) + cap(r.events.buf)
}
