package cluster

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/disc-mining/disc/internal/core"
	"github.com/disc-mining/disc/internal/jobs"
	"github.com/disc-mining/disc/internal/mining"
	"github.com/disc-mining/disc/internal/obs"
)

// fleetTimeline runs one job through a manager whose Mine hook is a
// two-worker coordinator fleet and returns the assembled timeline.
// workerEvents is each worker's TraceEvents (0 = the default).
func fleetTimeline(t *testing.T, workerEvents int, nodeA, nodeB string) *obs.Timeline {
	t.Helper()
	req := testReq(t, "disc-all")
	req.Opts.Workers = 1
	a := startWorker(t, WorkerConfig{Node: nodeA, TraceSeed: 1, MaxConcurrent: 8, TraceEvents: workerEvents})
	b := startWorker(t, WorkerConfig{Node: nodeB, TraceSeed: 2, MaxConcurrent: 8, TraceEvents: workerEvents})
	coord := New(Config{Peers: []string{a, b}, Shards: 2, ShardTimeout: time.Minute,
		HedgeQuantile: 0}) // hedging off: one dispatch per shard, a deterministic span set
	m := jobs.NewManager(jobs.Config{
		Workers:   1,
		Node:      "coordinator",
		TraceSeed: 99,
		Mine: func(ctx context.Context, r jobs.Request, cp *core.Checkpointer) (*mining.Result, error) {
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
	if _, ok := j.Result(); !ok {
		t.Fatalf("job failed: %v", j.Status().Err)
	}
	tl, err := m.Timeline(j.ID())
	if err != nil {
		t.Fatal(err)
	}
	return tl
}

// TestFleetTimelineAcceptance is the acceptance contract of the
// tracing tentpole: one job sharded over a two-worker in-process fleet
// yields a single assembled timeline in which every worker-side span
// carries the job's trace ID, every parent link resolves to a span in
// the same timeline, and the coordinator's shard spans bracket the
// worker-side children they dispatched.
func TestFleetTimelineAcceptance(t *testing.T) {
	tl := fleetTimeline(t, 0, "w1", "w2")

	if tl.TraceID == "" || len(tl.TraceID) != 16 {
		t.Fatalf("timeline lacks a trace ID: %+v", tl)
	}
	byID := map[string]obs.SpanRecord{}
	for _, sp := range tl.Spans {
		if sp.Trace != tl.TraceID {
			t.Fatalf("span %s/%s carries trace %q, want the job's %q", sp.Node, sp.Stage, sp.Trace, tl.TraceID)
		}
		byID[sp.Span] = sp
	}
	stages := map[string]int{}
	var roots int
	for _, sp := range tl.Spans {
		stages[sp.Stage]++
		if sp.Parent == "" {
			roots++
			if sp.Stage != "job" {
				t.Fatalf("parentless span %q on %s, only the job root may be one", sp.Stage, sp.Node)
			}
			continue
		}
		if _, ok := byID[sp.Parent]; !ok {
			t.Fatalf("span %s/%s parent %s resolves to no span in the timeline", sp.Node, sp.Stage, sp.Parent)
		}
	}
	if roots != 1 {
		t.Fatalf("want exactly one root span, got %d", roots)
	}
	if stages["job"] != 1 || stages["shard"] != 2 || stages["shard_worker"] != 2 {
		t.Fatalf("span census %v, want 1 job, 2 shard, 2 shard_worker", stages)
	}

	workerNodes := map[string]bool{}
	var sawEngine bool
	for _, sp := range tl.Spans {
		switch sp.Stage {
		case "shard_worker":
			workerNodes[sp.Node] = true
			// The dispatching coordinator shard span brackets its worker child.
			par := byID[sp.Parent]
			if par.Stage != "shard" || par.Node != "coordinator" {
				t.Fatalf("shard_worker on %s parents under %s/%s, want a coordinator shard span", sp.Node, par.Node, par.Stage)
			}
			cs, ce := par.Start, par.Start.Add(time.Duration(par.DurNS))
			ws, we := sp.Start, sp.Start.Add(time.Duration(sp.DurNS))
			if ws.Before(cs) || we.After(ce) {
				t.Fatalf("shard span [%v,%v] does not bracket worker span [%v,%v]", cs, ce, ws, we)
			}
		default:
			if strings.HasPrefix(sp.Stage, "partition_") && (sp.Node == "w1" || sp.Node == "w2") {
				sawEngine = true
			}
		}
	}
	if len(workerNodes) == 0 {
		t.Fatal("no worker-side spans made it back over the wire")
	}
	if !sawEngine {
		t.Fatal("worker engine partition spans missing from the assembled timeline")
	}

	eventNames := map[string]int{}
	for _, ev := range tl.Events {
		eventNames[ev.Name]++
	}
	if eventNames["queue-admit"] != 1 || eventNames["shard-assign"] < 2 || eventNames["shard-resolve"] < 2 {
		t.Fatalf("event census %v, want queue-admit and per-shard assign/resolve", eventNames)
	}
}

// TestFleetTimelineGolden pins the normalized shape of a two-worker
// fleet timeline: span hierarchy (stages, nodes, parent links) and the
// event set, with IDs remapped canonically and scheduling-dependent
// detail (timestamps, worker pairing, ports) normalized away.
// Regenerate with: CLUSTER_UPDATE_GOLDEN=1 go test ./internal/cluster -run FleetTimelineGolden
func TestFleetTimelineGolden(t *testing.T) {
	// Both workers share one node name: which of the two symmetric
	// workers mines which shard is a scheduling race, so the normalized
	// form must not encode it.
	tl := fleetTimeline(t, 0, "worker", "worker")
	got := normalizeTimeline(t, tl)

	golden := filepath.Join("testdata", "timeline.golden")
	if os.Getenv("CLUSTER_UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (set CLUSTER_UPDATE_GOLDEN=1 to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("normalized timeline mismatch\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestWorkerDropsReachTimeline: spans a worker's recorder evicted never
// reach the coordinator, so the timeline must still count them. Workers
// with a tiny recorder under a roomy coordinator one leave nothing else
// to drop.
func TestWorkerDropsReachTimeline(t *testing.T) {
	tl := fleetTimeline(t, 8, "w1", "w2")
	if tl.Dropped == 0 {
		t.Fatalf("workers with an 8-entry recorder dropped spans, but the timeline reports dropped_events 0 (%d spans)", len(tl.Spans))
	}
}

// normalizeTimeline renders the timeline as a deterministic text form:
// the span tree in canonical DFS order (children sorted by their
// canonical subtree serialization, so symmetric branches land in a
// stable order regardless of which worker won which shard) plus the
// event multiset sorted by name and shard.
func normalizeTimeline(t *testing.T, tl *obs.Timeline) string {
	t.Helper()
	children := map[string][]obs.SpanRecord{}
	byID := map[string]obs.SpanRecord{}
	var tree func(sp obs.SpanRecord) string
	tree = func(sp obs.SpanRecord) string {
		kids := make([]string, 0, len(children[sp.Span]))
		for _, c := range children[sp.Span] {
			kids = append(kids, tree(c))
		}
		sort.Strings(kids)
		return fmt.Sprintf("%s(%s)[%s]", sp.Stage, sp.Node, strings.Join(kids, " "))
	}
	var roots []obs.SpanRecord
	for _, sp := range tl.Spans {
		byID[sp.Span] = sp
	}
	for _, sp := range tl.Spans {
		if _, ok := byID[sp.Parent]; ok && sp.Parent != "" {
			children[sp.Parent] = append(children[sp.Parent], sp)
		} else {
			roots = append(roots, sp)
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, "trace present=%t job present=%t\n", tl.TraceID != "", tl.JobID != "")
	fmt.Fprintf(&b, "dropped %d\n", tl.Dropped)
	b.WriteString("spans:\n")
	remap := map[string]string{}
	var walk func(sp obs.SpanRecord, depth int)
	walk = func(sp obs.SpanRecord, depth int) {
		id := fmt.Sprintf("S%d", len(remap)+1)
		remap[sp.Span] = id
		parent := "-"
		if p, ok := remap[sp.Parent]; ok {
			parent = p
		}
		fmt.Fprintf(&b, "%s%s %s node=%s parent=%s\n", strings.Repeat("  ", depth+1), id, sp.Stage, sp.Node, parent)
		kids := append([]obs.SpanRecord(nil), children[sp.Span]...)
		sort.SliceStable(kids, func(i, j int) bool { return tree(kids[i]) < tree(kids[j]) })
		for _, c := range kids {
			walk(c, depth+1)
		}
	}
	sort.SliceStable(roots, func(i, j int) bool { return tree(roots[i]) < tree(roots[j]) })
	for _, r := range roots {
		walk(r, 0)
	}

	b.WriteString("events:\n")
	type nev struct{ name, shard, attempt, span string }
	var evs []nev
	for _, ev := range tl.Events {
		e := nev{name: ev.Name, shard: ev.Attrs["shard"], attempt: ev.Attrs["attempt"]}
		if id, ok := remap[ev.Span]; ok {
			e.span = id
		}
		evs = append(evs, e)
	}
	sort.Slice(evs, func(i, j int) bool {
		a, c := evs[i], evs[j]
		if a.name != c.name {
			return a.name < c.name
		}
		if a.shard != c.shard {
			return a.shard < c.shard
		}
		return a.attempt < c.attempt
	})
	for _, e := range evs {
		line := "  " + e.name
		if e.shard != "" {
			line += " shard=" + e.shard
		}
		if e.attempt != "" {
			line += " attempt=" + e.attempt
		}
		if e.span != "" {
			line += " span=" + e.span
		}
		b.WriteString(line + "\n")
	}
	return b.String()
}

// TestWorkerSeriesPrunedOnExpiry is the regression test for the
// per-worker metric-series leak: a self-registered worker whose
// heartbeat lapsed past the prune grace must take its
// disc_cluster_breaker_state gauge and latency histogram out of the
// exposition, and its peer/breaker/latency map entries with them.
// Re-registration recreates everything cleanly.
func TestWorkerSeriesPrunedOnExpiry(t *testing.T) {
	o := obs.NewObserver()
	c := New(Config{HeartbeatTTL: 20 * time.Millisecond, Obs: o})
	const url = "http://worker-leak:1"
	c.Register(url)
	c.breakerFor(url)
	c.latency(url).Observe(0.001)

	text := renderRegistry(t, o)
	if !strings.Contains(text, `disc_cluster_breaker_state{worker="`+url+`"}`) ||
		!strings.Contains(text, `disc_cluster_worker_latency_seconds_count{worker="`+url+`"}`) {
		t.Fatalf("per-worker series missing before expiry:\n%s", text)
	}

	// Sleep past pruneGraceFactor × TTL, then trigger the prune the way
	// production does (another worker's registration).
	time.Sleep(time.Duration(pruneGraceFactor)*c.cfg.HeartbeatTTL + 30*time.Millisecond)
	c.Register("http://worker-alive:2")

	text = renderRegistry(t, o)
	if strings.Contains(text, url) {
		t.Fatalf("expired worker's series still render (metric leak):\n%s", text)
	}
	c.mu.Lock()
	_, peerLeak := c.peers[url]
	_, brLeak := c.breakers[url]
	_, latLeak := c.workerLat[url]
	c.mu.Unlock()
	if peerLeak || brLeak || latLeak {
		t.Fatalf("expired worker leaks state: peer=%v breaker=%v latency=%v", peerLeak, brLeak, latLeak)
	}

	// A pruned worker that comes back gets fresh series, not a panic.
	c.Register(url)
	c.breakerFor(url)
	c.latency(url).Observe(0.002)
	if text := renderRegistry(t, o); !strings.Contains(text, `disc_cluster_breaker_state{worker="`+url+`"}`) {
		t.Fatalf("re-registered worker's series missing:\n%s", text)
	}
}

func renderRegistry(t *testing.T, o *obs.Observer) string {
	t.Helper()
	var b strings.Builder
	if err := o.Registry.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}
