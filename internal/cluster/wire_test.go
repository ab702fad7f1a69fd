package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/disc-mining/disc/internal/core"
	"github.com/disc-mining/disc/internal/jobs"
	"github.com/disc-mining/disc/internal/obs"
	"github.com/disc-mining/disc/internal/testutil"
)

const testFrameLimit = 1 << 16

// frameBytes reads an encoder's frame whole: frameBytes(t)(encode(v)).
func frameBytes(t testing.TB) func(frame, error) []byte {
	return func(f frame, err error) []byte {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		b, err := io.ReadAll(f.Reader())
		if err != nil {
			t.Fatal(err)
		}
		if int64(len(b)) != f.Len() {
			t.Fatalf("frame reads %d bytes, Len says %d", len(b), f.Len())
		}
		return b
	}
}

// wantInputError fails unless err is the typed input error every
// malformed frame must give.
func wantInputError(t testing.TB, err error) {
	t.Helper()
	var we *jobs.WireError
	if !errors.As(err, &we) || we.Kind != "input" {
		t.Fatalf("want a typed input error, got %T %v", err, err)
	}
}

func TestShardFrameCodec(t *testing.T) {
	req := ShardRequest{Algo: "disc-all", MinSup: 3, BiLevel: true, Levels: 2, Gamma: 0.5,
		Shard: 1, Shards: 4, Fingerprint: "00000000deadbeef", DB: "1:(1 2)(3)\n2:(1)\n"}
	for _, resume := range []string{"", "DISCCKPT resume text\nwith lines\n"} {
		req.Resume = resume
		b := frameBytes(t)(encodeShardRequest(&req))
		got, err := decodeShardRequest(bytes.NewReader(b), int64(len(b)))
		if err != nil {
			t.Fatal(err)
		}
		if *got != req {
			t.Fatalf("request round trip with resume %q:\ngot  %+v\nwant %+v", resume, *got, req)
		}
	}
	span := obs.SpanRecord{Trace: "0000000000000001", Span: "0000000000000002", Stage: "shard_worker",
		Node: "w1", Start: time.Unix(1700000000, 5).UTC(), DurNS: 42}
	for _, resp := range []ShardResponse{
		{},
		{Checkpoint: "DISCCKPT\nshard text\n"},
		{Error: &jobs.WireError{Kind: "invariant", Message: "boom"}, Spans: []obs.SpanRecord{span}, Dropped: 7,
			Checkpoint: "partial\n"},
	} {
		b := frameBytes(t)(encodeShardResponse(&resp))
		got, err := decodeShardResponse(bytes.NewReader(b), int64(len(b)))
		if err != nil {
			t.Fatal(err)
		}
		if again := frameBytes(t)(encodeShardResponse(got)); !bytes.Equal(again, b) {
			t.Fatalf("response round trip:\ngot  %q\nwant %q", again, b)
		}
		if got.Checkpoint != resp.Checkpoint || got.Dropped != resp.Dropped || len(got.Spans) != len(resp.Spans) {
			t.Fatalf("response round trip lost fields: %+v", got)
		}
	}
	// A reply from a worker of an older build is one bare JSON object: a
	// header without sections, carrying the typed error.
	old, err := decodeShardResponse(strings.NewReader(`{"error":{"kind":"input","message":"x"}}`+"\n"), testFrameLimit)
	if err != nil || old.Error == nil || old.Error.Kind != "input" {
		t.Fatalf("bare JSON reply: got %+v, %v", old, err)
	}

	// Every malformation, in both directions, is a typed input error.
	for dir, d := range map[string]struct {
		lenKey string
		decode func(io.Reader, int64) error
	}{
		"request": {"db_bytes", func(r io.Reader, n int64) error { _, err := decodeShardRequest(r, n); return err }},
		"response": {"checkpoint_bytes", func(r io.Reader, n int64) error {
			_, err := decodeShardResponse(r, n)
			return err
		}},
	} {
		for name, body := range map[string]string{
			"empty body":           ``,
			"no header newline":    fmt.Sprintf(`{"%s":0}`, d.lenKey),
			"bad header":           "{\"algo\":\n",
			"header not an object": "[1,2]\n",
			"negative length":      fmt.Sprintf("{\"%s\":-1}\nabc", d.lenKey),
			"length past limit":    fmt.Sprintf("{\"%s\":%d}\nabc", d.lenKey, int64(1)<<40),
			"truncated section":    fmt.Sprintf("{\"%s\":10}\nabcde", d.lenKey),
			"trailing bytes":       fmt.Sprintf("{\"%s\":3}\nabcdef", d.lenKey),
			"frame past limit":     fmt.Sprintf("{\"%s\":3}\nabc", d.lenKey) + strings.Repeat(" ", testFrameLimit),
		} {
			t.Run(dir+"/"+name, func(t *testing.T) {
				wantInputError(t, d.decode(strings.NewReader(body), testFrameLimit))
			})
		}
	}
}

// FuzzShardRequest: any input decodes or fails with a typed input
// error, never a panic, and whatever decodes re-encodes to a frame that
// decodes to the same request.
func FuzzShardRequest(f *testing.F) {
	req := ShardRequest{Algo: "disc-all", MinSup: 2, Shards: 2, Fingerprint: "0123456789abcdef", DB: "1:(1 2)\n"}
	f.Add(frameBytes(f)(encodeShardRequest(&req)))
	req.Resume = "resume\n"
	f.Add(frameBytes(f)(encodeShardRequest(&req)))
	f.Add([]byte("{\"db_bytes\":-1}\n"))
	f.Add([]byte("{\"db_bytes\":4,\"resume_bytes\":1}\nabc"))
	f.Fuzz(func(t *testing.T, b []byte) {
		got, err := decodeShardRequest(bytes.NewReader(b), testFrameLimit)
		if err != nil {
			wantInputError(t, err)
			return
		}
		again := frameBytes(t)(encodeShardRequest(got))
		back, err := decodeShardRequest(bytes.NewReader(again), int64(len(again)))
		if err != nil {
			t.Fatalf("re-encoded request does not decode: %v", err)
		}
		if *back != *got {
			t.Fatalf("request round trip:\ngot  %+v\nwant %+v", *back, *got)
		}
	})
}

// FuzzShardResponse is FuzzShardRequest for the reply direction.
func FuzzShardResponse(f *testing.F) {
	resp := ShardResponse{Checkpoint: "ckpt\n", Dropped: 3, Spans: []obs.SpanRecord{{Trace: "1", Span: "2", Stage: "s"}}}
	f.Add(frameBytes(f)(encodeShardResponse(&resp)))
	f.Add([]byte(`{"error":{"kind":"shed","message":"full"}}` + "\n"))
	f.Add([]byte("{\"checkpoint_bytes\":9}\nshort"))
	f.Fuzz(func(t *testing.T, b []byte) {
		got, err := decodeShardResponse(bytes.NewReader(b), testFrameLimit)
		if err != nil {
			wantInputError(t, err)
			return
		}
		fr, err := encodeShardResponse(got)
		if err != nil {
			// The worker drops unencodable spans; so does this check.
			got.Spans = nil
			fr, err = encodeShardResponse(got)
		}
		once := frameBytes(t)(fr, err)
		back, err := decodeShardResponse(bytes.NewReader(once), int64(len(once)))
		if err != nil {
			t.Fatalf("re-encoded response does not decode: %v", err)
		}
		if twice := frameBytes(t)(encodeShardResponse(back)); !bytes.Equal(twice, once) {
			t.Fatalf("response round trip:\ngot  %q\nwant %q", twice, once)
		}
	})
}

// TestWorkerParsesEachDatabaseOnce: shards of one job sent to one worker
// at once share one parse and one fingerprint and mine exactly what
// separately parsed runs mine, and the table keeps the MaxConcurrent most recently used
// databases. make cluster runs it with -race -count=10: the shards mine
// one shared database concurrently.
func TestWorkerParsesEachDatabaseOnce(t *testing.T) {
	const shards = 4
	ctx := context.Background()
	c := New(Config{})
	base := shardBase(t, testReq(t, "disc-all"), shards)
	base.Workers = 1 // a serial shard run records its partitions in a fixed order

	want := make([]string, shards)
	for i := range want {
		url := startWorker(t, WorkerConfig{})
		resp, err := c.dispatch(ctx, url, base, i, "", nil, 0)
		if err != nil || resp.Error != nil {
			t.Fatalf("reference shard %d: %v %+v", i, err, resp)
		}
		want[i] = resp.Checkpoint
	}

	w := NewWorker(WorkerConfig{MaxConcurrent: shards})
	url := serveWorker(t, w)
	got := make([]string, shards)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := c.dispatch(ctx, url, base, i, "", nil, 0)
			if err != nil || resp.Error != nil {
				t.Errorf("shard %d: %v %+v", i, err, resp)
				return
			}
			got[i] = resp.Checkpoint
		}(i)
	}
	wg.Wait()
	if n := w.dbs.parses.Value(); n != 1 {
		t.Fatalf("%d concurrent shards of one job parsed its database %d times, want once", shards, n)
	}
	if n := fingerprintsHeld(w); n != 1 {
		t.Fatalf("%d concurrent shards of one job left %d fingerprints, want one", shards, n)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("shard %d mined from the shared database differs from a separately parsed run", i)
		}
	}

	// Three databases through a two-entry table, least recently used out.
	w = NewWorker(WorkerConfig{MaxConcurrent: 2})
	url = serveWorker(t, w)
	dbs := map[string]ShardRequest{}
	for i, name := range []string{"a", "b", "c"} {
		req := testReq(t, "disc-all")
		req.DB = testutil.SkewedRandomDB(rand.New(rand.NewSource(int64(100+i))), 30, 8, 5, 3)
		dbs[name] = shardBase(t, req, 1)
	}
	for i, step := range []struct {
		db     string
		parses int64
	}{{"a", 1}, {"b", 2}, {"a", 2}, {"c", 3}, {"a", 3}, {"b", 4}} {
		resp, err := c.dispatch(ctx, url, dbs[step.db], 0, "", nil, 0)
		if err != nil || resp.Error != nil {
			t.Fatalf("step %d: %v %+v", i, err, resp)
		}
		if n := w.dbs.parses.Value(); n != step.parses {
			t.Fatalf("step %d (database %s): %d parses, want %d", i, step.db, n, step.parses)
		}
	}
}

// TestWorkerFingerprintsEachDatabaseOnce: a worker remembers the job
// fingerprint it derived for a parsed database, per algorithm, options
// and δ, and still checks every request against it. A wrong fingerprint
// for a remembered database is refused. The same text under other
// options gets its own fingerprint, which refuses the first options'.
func TestWorkerFingerprintsEachDatabaseOnce(t *testing.T) {
	ctx := context.Background()
	c := New(Config{})
	w := NewWorker(WorkerConfig{})
	url := serveWorker(t, w)
	req := testReq(t, "disc-all")
	base := shardBase(t, req, 1)
	other := req
	other.Opts.Levels = 1
	ob := shardBase(t, other, 1)
	if ob.DB != base.DB || ob.Fingerprint == base.Fingerprint {
		t.Fatal("the two requests must share their text and differ in fingerprint")
	}
	wrong := base
	wrong.Fingerprint = Fingerprint(^core.CheckpointFingerprint(req.Algo, req.Opts, req.MinSup, req.DB))
	mixed := ob
	mixed.Fingerprint = base.Fingerprint

	for i, step := range []struct {
		req    ShardRequest
		refuse bool
	}{{base, false}, {wrong, true}, {base, false}, {ob, false}, {mixed, true}, {ob, false}} {
		resp, err := c.dispatch(ctx, url, step.req, 0, "", nil, 0)
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		refused := resp.Error != nil && resp.Error.Kind == "input" &&
			strings.Contains(resp.Error.Message, "fingerprint mismatch")
		if refused != step.refuse || (!refused && resp.Error != nil) {
			t.Fatalf("step %d: got error %+v, want refused=%t", i, resp.Error, step.refuse)
		}
	}
	if n := w.dbs.parses.Value(); n != 1 {
		t.Fatalf("one text parsed %d times, want once", n)
	}
	if n := fingerprintsHeld(w); n != 2 {
		t.Fatalf("the parsed database holds %d fingerprints, want 2 (one per options)", n)
	}
}

// fingerprintsHeld reports how many job fingerprints the worker's most
// recently used database entry holds.
func fingerprintsHeld(w *Worker) int {
	w.dbs.mu.Lock()
	e := w.dbs.entries[len(w.dbs.entries)-1]
	w.dbs.mu.Unlock()
	e.fpMu.Lock()
	defer e.fpMu.Unlock()
	return len(e.fps)
}

// TestWorkerRefusesJSONRequests: a shard request in the encoding of an
// older build gets a typed input error naming the expected one, in a
// reply an older coordinator reads as its own JSON; and a coordinator
// facing a worker of an older build falls back to a byte-identical
// local run.
func TestWorkerRefusesJSONRequests(t *testing.T) {
	url := startWorker(t, WorkerConfig{})
	res, err := http.Post(url+"/cluster/shard", "application/json",
		strings.NewReader(`{"algo":"disc-all","minsup":2,"shards":1,"fingerprint":"0000000000000000","db":"1:(1)\n"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var old struct {
		Error *jobs.WireError `json:"error"`
	}
	if err := json.NewDecoder(res.Body).Decode(&old); err != nil {
		t.Fatal(err)
	}
	if res.StatusCode != http.StatusBadRequest || old.Error == nil || old.Error.Kind != "input" ||
		!strings.Contains(old.Error.Message, shardContentType) {
		t.Fatalf("JSON request: HTTP %d, error %+v; want 400 input naming %s", res.StatusCode, old.Error, shardContentType)
	}

	req := testReq(t, "disc-all")
	want := localRun(t, req)
	stale := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		writeJSON(rw, http.StatusBadRequest, map[string]*jobs.WireError{
			"error": {Kind: "input", Message: "fingerprint mismatch"}})
	}))
	defer stale.Close()
	c := New(Config{Peers: []string{stale.URL}, Shards: 2, Retries: 1, ShardTimeout: time.Minute, Cooldown: time.Millisecond})
	got, err := c.Mine(context.Background(), req, nil)
	if err != nil {
		t.Fatal(err)
	}
	if render(got) != want {
		t.Fatal("a fleet of older-build workers gave a result that differs from a local run")
	}
	if n := c.shards["local"].Value(); n != 2 {
		t.Fatalf("want both shards mined locally, got %d", n)
	}
}
