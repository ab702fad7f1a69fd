// Package cluster distributes one mining job across a fleet of discserve
// workers. The unit of distribution is the shard: a stable hash-assigned
// subset of the job's first-level partitions (core.ShardOf), mined by a
// worker as an ordinary shard-scoped engine run whose completed
// partitions come back as a shard-granular checkpoint. The coordinator
// accumulates shard checkpoints — resending a shard's accumulated
// partitions as its resume state when the shard is retried, so a worker
// that died mid-shard costs only the partitions it had not recorded —
// and finishes with a local ResumeFrom assembly run, which restores
// every received partition and merges them in the engine's ascending key
// order. Byte-identity of a clustered run with a local one is therefore
// the existing checkpoint-resume identity, proven partition-wise; the
// shard-union property is pinned by core's TestShardUnionByteIdentical
// and end-to-end by the difftest cluster grid.
//
// Errors cross the wire as the internal/jobs typed taxonomy (WireError),
// so a worker failure relayed by the coordinator reaches the tenant in
// the same JSON shape a local failure would.
package cluster

import (
	"bufio"
	"crypto/subtle"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"github.com/disc-mining/disc/internal/checkpoint"
	"github.com/disc-mining/disc/internal/core"
	"github.com/disc-mining/disc/internal/jobs"
	"github.com/disc-mining/disc/internal/obs"
)

// secretHeader carries the shared fleet secret on every control-plane
// request (/cluster/register, /cluster/shard). Both sides treat an empty
// configured secret as "open fleet" — the deployment's explicit choice
// for trusted networks; anything else is checked constant-time.
const secretHeader = "X-Disc-Cluster-Secret"

// The trace-propagation headers: a shard dispatch carries the job's
// trace ID and the coordinator-side shard span it should parent under,
// so the worker's spans land in the same fleet-wide timeline. Absent
// headers mean an untraced dispatch (an old coordinator); the worker
// simply mines without recording.
const (
	traceIDHeader    = "X-Disc-Trace-Id"
	parentSpanHeader = "X-Disc-Parent-Span"
)

// setSecret attaches the fleet secret to an outgoing request (no-op when
// the fleet runs open).
func setSecret(r *http.Request, secret string) {
	if secret != "" {
		r.Header.Set(secretHeader, secret)
	}
}

// authorized reports whether an incoming control-plane request proves
// fleet membership under the configured secret.
func authorized(secret string, r *http.Request) bool {
	if secret == "" {
		return true
	}
	got := r.Header.Get(secretHeader)
	return subtle.ConstantTimeCompare([]byte(got), []byte(secret)) == 1
}

// ShardRequest is the coordinator→worker dispatch payload: the whole job
// identity plus which shard of it to mine. The database travels in the
// native text encoding, the optional resume state as a checkpoint-format
// document; both reuse the repository's canonical formats rather than
// inventing wire-only ones, and both travel as raw frame sections, not
// inside the JSON header (see the frame format below).
type ShardRequest struct {
	Algo    string  `json:"algo"`
	MinSup  int     `json:"minsup"`
	BiLevel bool    `json:"bilevel"`
	Levels  int     `json:"levels"`
	Gamma   float64 `json:"gamma"`
	Workers int     `json:"workers,omitempty"` // suggested mining concurrency; the worker may cap it
	// MaxPatterns/MaxMemBytes are *per-shard* budgets: the worker
	// enforces the tighter of these and its own configured limits against
	// the one shard it mines. The coordinator never ships them — a job
	// with a resource budget runs on the local path so the budget stays
	// job-global (see Coordinator.Mine) — but the fields remain in the
	// contract for dispatchers that want per-shard caps and for worker
	// self-protection.
	MaxPatterns int    `json:"max_patterns,omitempty"`
	MaxMemBytes int64  `json:"max_mem_bytes,omitempty"`
	Shard       int    `json:"shard"`
	Shards      int    `json:"shards"`
	Fingerprint string `json:"fingerprint"` // 16 hex digits; workers refuse mismatched jobs
	DB          string `json:"-"`           // data.Native text: the frame's first section
	Resume      string `json:"-"`           // checkpoint text, may be empty: the second section
}

// Options reconstructs the result-relevant engine options the request
// describes. Both sides derive the fingerprint from these, so a request
// that decodes at all is verifiable.
func (r *ShardRequest) Options() core.Options {
	return core.Options{BiLevel: r.BiLevel, Levels: r.Levels, Gamma: r.Gamma}
}

// ShardResponse is the worker's reply. Checkpoint carries the shard's
// completed partitions — on success all of them, on failure whatever
// completed before the error, so a reschedule resumes rather than
// restarts. Error is the typed taxonomy shared with the job API.
type ShardResponse struct {
	Error *jobs.WireError `json:"error,omitempty"`
	// Spans are the worker's completed span records for this shard run,
	// present when the dispatch carried trace headers. The coordinator
	// folds them into the job's flight recorder, which is how one
	// fleet-wide timeline exists at all. Dropped counts the entries the
	// worker's recorder evicted before Spans were taken; the coordinator
	// adds it to the job's dropped_events.
	Spans      []obs.SpanRecord `json:"spans,omitempty"`
	Dropped    uint64           `json:"dropped_events,omitempty"`
	Checkpoint string           `json:"-"` // checkpoint text: the frame's one section
}

// The shard wire format. Each direction is one frame: a single JSON
// header line, then raw text sections whose byte lengths the header
// declares.
//
//	request:  {"algo":…,"shard":…,"db_bytes":D,"resume_bytes":R}\n <D bytes of database> <R bytes of checkpoint>
//	response: {"error":…,"spans":[…],"checkpoint_bytes":C}\n <C bytes of checkpoint>
//
// The database and the checkpoints — megabytes of text in the
// repository's own formats — travel verbatim: nothing escapes or
// unescapes them, and the coordinator streams the job's one rendered
// database into every request without copying it. There is one
// encoding, so every role of a fleet must run the same build. A worker
// answers a request of any other Content-Type with a typed input error
// that names this one; a coordinator reads a reply that is one bare JSON
// object (a worker from an older build) as a header with no sections,
// so either mismatch costs one retried attempt and, at worst, a local
// shard run — never a wrong or undecodable result.
const shardContentType = "application/x-disc-shard"

// requestHeader and responseHeader are the header lines: the message's
// own fields plus the lengths of the sections that follow.
type requestHeader struct {
	*ShardRequest
	DBBytes     int64 `json:"db_bytes"`
	ResumeBytes int64 `json:"resume_bytes"`
}

type responseHeader struct {
	*ShardResponse
	CheckpointBytes int64 `json:"checkpoint_bytes"`
}

// frame is one encoded message: the header line, then the sections,
// kept as the strings they already are.
type frame []string

func newFrame(header any, sections ...string) (frame, error) {
	h, err := json.Marshal(header)
	if err != nil {
		return nil, err
	}
	return append(frame{string(append(h, '\n'))}, sections...), nil
}

// Len is the frame's length in bytes: its Content-Length.
func (f frame) Len() int64 {
	var n int64
	for _, s := range f {
		n += int64(len(s))
	}
	return n
}

// Reader streams the frame from its start; every call gets a fresh one.
func (f frame) Reader() io.Reader {
	rs := make([]io.Reader, len(f))
	for i, s := range f {
		rs[i] = strings.NewReader(s)
	}
	return io.MultiReader(rs...)
}

func encodeShardRequest(r *ShardRequest) (frame, error) {
	return newFrame(requestHeader{r, int64(len(r.DB)), int64(len(r.Resume))}, r.DB, r.Resume)
}

func encodeShardResponse(r *ShardResponse) (frame, error) {
	return newFrame(responseHeader{r, int64(len(r.Checkpoint))}, r.Checkpoint)
}

// decodeShardRequest reads one request frame of at most limit bytes.
// Every malformation — no header line, a bad header, a negative or
// oversized section length, a truncated section, trailing bytes — is a
// typed input error.
func decodeShardRequest(r io.Reader, limit int64) (*ShardRequest, error) {
	req := &ShardRequest{}
	h := requestHeader{ShardRequest: req}
	u := newUnframer(r, limit)
	u.header(&h)
	req.DB = u.section(h.DBBytes, "database")
	req.Resume = u.section(h.ResumeBytes, "resume checkpoint")
	if err := u.end(); err != nil {
		return nil, err
	}
	return req, nil
}

// decodeShardResponse reads one response frame of at most limit bytes,
// failing the way decodeShardRequest does.
func decodeShardResponse(r io.Reader, limit int64) (*ShardResponse, error) {
	resp := &ShardResponse{}
	h := responseHeader{ShardResponse: resp}
	u := newUnframer(r, limit)
	u.header(&h)
	resp.Checkpoint = u.section(h.CheckpointBytes, "checkpoint")
	if err := u.end(); err != nil {
		return nil, err
	}
	return resp, nil
}

// writeShardResponse answers a shard request with one response frame.
func writeShardResponse(rw http.ResponseWriter, code int, resp *ShardResponse) {
	f, err := encodeShardResponse(resp)
	if err != nil {
		// Only a span record can fail to encode (a time outside JSON's
		// range); the partitions matter more than the timeline.
		resp.Spans = nil
		f, _ = encodeShardResponse(resp)
	}
	rw.Header().Set("Content-Type", shardContentType)
	rw.Header().Set("Content-Length", strconv.FormatInt(f.Len(), 10))
	rw.WriteHeader(code)
	io.Copy(rw, f.Reader())
}

// inputError is the typed rejection of a malformed or mismatched shard
// request.
func inputError(format string, args ...any) *jobs.WireError {
	return &jobs.WireError{Kind: "input", Message: fmt.Sprintf(format, args...)}
}

// unframer reads one frame. The first failure sticks: later calls do
// nothing and end reports it.
type unframer struct {
	br   *bufio.Reader
	left int64 // bytes the frame may still take
	err  error
}

// sectionGrow caps the up-front allocation of a section, so a header
// that lies about a length costs at most this much before the short
// read exposes it.
const sectionGrow = 1 << 20

func newUnframer(r io.Reader, limit int64) *unframer {
	// One byte past the limit stays readable, so end can tell a frame
	// that fills the limit exactly from one that overruns it.
	return &unframer{br: bufio.NewReader(io.LimitReader(r, limit+1)), left: limit}
}

func (u *unframer) fail(format string, args ...any) {
	if u.err == nil {
		u.err = inputError(format, args...)
	}
}

func (u *unframer) header(v any) {
	line, err := u.br.ReadBytes('\n')
	switch {
	case err == io.EOF:
		u.fail("shard frame has no header line")
		return
	case err != nil:
		u.fail("reading shard frame header: %v", err)
		return
	case int64(len(line)) > u.left:
		u.fail("shard frame header exceeds the %d-byte limit", u.left)
		return
	}
	u.left -= int64(len(line))
	if err := json.Unmarshal(line, v); err != nil {
		u.fail("bad shard frame header: %v", err)
	}
}

func (u *unframer) section(n int64, what string) string {
	if u.err != nil {
		return ""
	}
	if n < 0 || n > u.left {
		u.fail("bad %s length %d (the frame has at most %d bytes left)", what, n, u.left)
		return ""
	}
	u.left -= n
	var b strings.Builder
	b.Grow(int(min(n, sectionGrow)))
	if got, err := io.CopyN(&b, u.br, n); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		u.fail("truncated %s section: %d of %d bytes (%v)", what, got, n, err)
		return ""
	}
	return b.String()
}

func (u *unframer) end() error {
	if u.err == nil {
		switch _, err := u.br.ReadByte(); {
		case err == nil:
			u.fail("trailing bytes after the shard frame")
		case err != io.EOF:
			u.fail("reading shard frame: %v", err)
		}
	}
	return u.err
}

// registration is the worker→coordinator announce/heartbeat payload.
type registration struct {
	URL string `json:"url"`
}

// Fingerprint formats a job fingerprint the way the wire carries it (16
// hex digits, the same form jobs use as their ID).
func Fingerprint(fp uint64) string { return fmt.Sprintf("%016x", fp) }

// shardable reports whether the algorithm supports partition sharding —
// the checkpointable disc-all family; the baseline miners are
// monolithic and always run locally.
func shardable(algo string) bool {
	return algo == "disc-all" || algo == "dynamic-disc-all"
}

// encodeCheckpoint renders a shard-granular checkpoint to wire text.
func encodeCheckpoint(f *checkpoint.File) (string, error) {
	var b strings.Builder
	if _, err := f.Write(&b); err != nil {
		return "", err
	}
	return b.String(), nil
}

// decodeCheckpoint parses wire checkpoint text.
func decodeCheckpoint(s string) (*checkpoint.File, error) {
	return checkpoint.Read(strings.NewReader(s))
}

// tighter resolves a request budget against the worker's own: the
// minimum of the pair, zero meaning unset (mirrors the jobs manager's
// budget rule).
func tighter[T int | int64](a, b T) T {
	switch {
	case a <= 0:
		return b
	case b <= 0:
		return a
	case a < b:
		return a
	default:
		return b
	}
}
