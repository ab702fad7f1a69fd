// Shard ledger: the coordinator's durable scheduling state for one
// clustered job. Where a checkpoint records *mining* progress (completed
// partitions), the ledger records *scheduling* progress — which shards
// are pending, assigned or done, which worker holds or finished each
// one, the attempt history, and each shard's last-known partitions — so
// a coordinator killed mid-job restarts, reloads the ledger, and
// schedules only the unfinished shards. The job's database and
// result-relevant options travel inside the ledger, making it a
// self-contained resubmission: recovery needs no surviving client.
//
// The encoding reuses the checkpoint document discipline (versioned
// header, CRC32 over the payload, fsync-before-rename writes) under its
// own magic:
//
//	DISCLEDG v1 crc32=<hex> bytes=<payload length>
//	algo <miner name>
//	fingerprint <16 hex digits>
//	minsup <δ>
//	options <bilevel> <levels> <gamma float64-bits-hex> <workers>
//	db <line count>
//	<database, data.Native text>   × line count
//	shards <count>
//	shard <index> <state> <worker|-> <attempt count>
//	attempt <worker> <outcome>     × attempt count
//	partitions <count>
//	<partition blocks, checkpoint grammar>
//
// The fingerprint is recomputed from the decoded database and options on
// recovery, so a ledger that decodes but disagrees with its own job is
// rejected before any mining happens.
package checkpoint

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// Shard states recorded in a ledger.
const (
	ShardPending  = "pending"
	ShardAssigned = "assigned"
	ShardDone     = "done"
)

// ShardAttempt is one entry of a shard's dispatch history: which worker
// was involved and how the attempt ended ("dispatched" for one still in
// flight when the ledger was last written).
type ShardAttempt struct {
	Worker  string
	Outcome string
}

// LedgerShard is the scheduling state of one shard.
type LedgerShard struct {
	State      string
	Worker     string // worker currently holding the shard ("" unless assigned)
	Attempts   []ShardAttempt
	Partitions []Partition // the shard's last-known completed partitions
}

// Ledger is the durable scheduling state of one clustered job.
type Ledger struct {
	Algo        string
	Fingerprint uint64
	MinSup      int
	BiLevel     bool
	Levels      int
	Gamma       float64
	Workers     int
	DB          string // data.Native text of the job's database
	Shards      []LedgerShard
}

// token encodes a worker URL (or "") as a single whitespace-free field.
func token(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

func untoken(s string) string {
	if s == "-" {
		return ""
	}
	return s
}

func (l *Ledger) payload() string {
	var b strings.Builder
	size := 256 + len(l.DB)
	for _, s := range l.Shards {
		size += 64 + 64*len(s.Attempts)
		for _, p := range s.Partitions {
			size += partitionSize(p)
		}
	}
	b.Grow(size)
	fmt.Fprintf(&b, "algo %s\n", l.Algo)
	fmt.Fprintf(&b, "fingerprint %016x\n", l.Fingerprint)
	fmt.Fprintf(&b, "minsup %d\n", l.MinSup)
	fmt.Fprintf(&b, "options %t %d %016x %d\n",
		l.BiLevel, l.Levels, math.Float64bits(l.Gamma), l.Workers)
	// The database block is its lines, each newline-terminated, counted
	// first.
	lines := 0
	db := strings.TrimSuffix(l.DB, "\n")
	if l.DB != "" {
		lines = strings.Count(db, "\n") + 1
	}
	fmt.Fprintf(&b, "db %d\n", lines)
	if lines > 0 {
		b.WriteString(db)
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "shards %d\n", len(l.Shards))
	for i, s := range l.Shards {
		fmt.Fprintf(&b, "shard %d %s %s %d\n", i, s.State, token(s.Worker), len(s.Attempts))
		for _, a := range s.Attempts {
			fmt.Fprintf(&b, "attempt %s %s\n", token(a.Worker), a.Outcome)
		}
		fmt.Fprintf(&b, "partitions %d\n", len(s.Partitions))
		for _, p := range s.Partitions {
			writePartition(&b, p)
		}
	}
	return b.String()
}

// Write renders the ledger to w (header + payload), returning the byte
// count so callers can observe ledger sizes.
func (l *Ledger) Write(w io.Writer) (int, error) {
	return writeDoc(w, "DISCLEDG", l.payload())
}

// WriteFile persists the ledger atomically and durably with the same
// fsync-before-rename discipline as checkpoints: a coordinator killed at
// any instant leaves either the previous ledger state or the new one,
// never a torn file.
func (l *Ledger) WriteFile(path string) (int, error) {
	return l.WriteFileFS(OS, path)
}

// WriteFileFS is WriteFile over an explicit filesystem (nil means OS).
func (l *Ledger) WriteFileFS(fsys FS, path string) (int, error) {
	return writeFileAtomic(fsys, path, l.Write)
}

// ReadLedger decodes a ledger, verifying version, payload length and
// checksum before parsing.
func ReadLedger(r io.Reader) (*Ledger, error) {
	lr, err := readDoc(r, "DISCLEDG")
	if err != nil {
		return nil, err
	}
	l := &Ledger{}
	fields, err := lr.next("algo")
	if err != nil {
		return nil, err
	}
	if len(fields) != 1 {
		return nil, fmt.Errorf("%w: bad algo line", ErrCorrupt)
	}
	l.Algo = fields[0]
	if fields, err = lr.next("fingerprint"); err != nil {
		return nil, err
	}
	if len(fields) != 1 {
		return nil, fmt.Errorf("%w: bad fingerprint line", ErrCorrupt)
	}
	if l.Fingerprint, err = strconv.ParseUint(fields[0], 16, 64); err != nil {
		return nil, fmt.Errorf("%w: bad fingerprint %q", ErrCorrupt, fields[0])
	}
	if fields, err = lr.next("minsup"); err != nil {
		return nil, err
	}
	if len(fields) != 1 {
		return nil, fmt.Errorf("%w: bad minsup line", ErrCorrupt)
	}
	if l.MinSup, err = atoi(fields[0]); err != nil {
		return nil, fmt.Errorf("%w: bad minsup %q", ErrCorrupt, fields[0])
	}
	if fields, err = lr.next("options"); err != nil {
		return nil, err
	}
	if len(fields) != 4 {
		return nil, fmt.Errorf("%w: options line has %d fields, want 4", ErrCorrupt, len(fields))
	}
	if l.BiLevel, err = strconv.ParseBool(fields[0]); err != nil {
		return nil, fmt.Errorf("%w: bad bilevel %q", ErrCorrupt, fields[0])
	}
	if l.Levels, err = atoi(fields[1]); err != nil {
		return nil, fmt.Errorf("%w: bad levels %q", ErrCorrupt, fields[1])
	}
	bits, err := strconv.ParseUint(fields[2], 16, 64)
	if err != nil {
		return nil, fmt.Errorf("%w: bad gamma bits %q", ErrCorrupt, fields[2])
	}
	l.Gamma = math.Float64frombits(bits)
	if l.Workers, err = atoi(fields[3]); err != nil {
		return nil, fmt.Errorf("%w: bad workers %q", ErrCorrupt, fields[3])
	}
	if fields, err = lr.next("db"); err != nil {
		return nil, err
	}
	ndb, err := atoi(fields[0])
	if err != nil || ndb < 0 {
		return nil, fmt.Errorf("%w: bad db line count", ErrCorrupt)
	}
	if lr.pos+ndb > len(lr.lines) {
		return nil, fmt.Errorf("%w: truncated database block", ErrCorrupt)
	}
	var db strings.Builder
	for i := 0; i < ndb; i++ {
		db.WriteString(lr.lines[lr.pos])
		db.WriteByte('\n')
		lr.pos++
	}
	l.DB = db.String()
	if fields, err = lr.next("shards"); err != nil {
		return nil, err
	}
	nshards, err := atoi(fields[0])
	if err != nil || nshards < 0 {
		return nil, fmt.Errorf("%w: bad shard count", ErrCorrupt)
	}
	for i := 0; i < nshards; i++ {
		if fields, err = lr.next("shard"); err != nil {
			return nil, err
		}
		if len(fields) != 4 {
			return nil, fmt.Errorf("%w: shard line has %d fields, want 4", ErrCorrupt, len(fields))
		}
		idx, err := atoi(fields[0])
		if err != nil || idx != i {
			return nil, fmt.Errorf("%w: shard index %q out of order (want %d)", ErrCorrupt, fields[0], i)
		}
		s := LedgerShard{State: fields[1], Worker: untoken(fields[2])}
		switch s.State {
		case ShardPending, ShardAssigned, ShardDone:
		default:
			return nil, fmt.Errorf("%w: unknown shard state %q", ErrCorrupt, s.State)
		}
		natt, err := atoi(fields[3])
		if err != nil || natt < 0 {
			return nil, fmt.Errorf("%w: bad attempt count %q", ErrCorrupt, fields[3])
		}
		for j := 0; j < natt; j++ {
			af, err := lr.next("attempt")
			if err != nil {
				return nil, err
			}
			if len(af) != 2 {
				return nil, fmt.Errorf("%w: attempt line has %d fields, want 2", ErrCorrupt, len(af))
			}
			s.Attempts = append(s.Attempts, ShardAttempt{Worker: untoken(af[0]), Outcome: af[1]})
		}
		if fields, err = lr.next("partitions"); err != nil {
			return nil, err
		}
		nparts, err := atoi(fields[0])
		if err != nil || nparts < 0 {
			return nil, fmt.Errorf("%w: bad partition count", ErrCorrupt)
		}
		for j := 0; j < nparts; j++ {
			p, err := readPartition(lr)
			if err != nil {
				return nil, err
			}
			s.Partitions = append(s.Partitions, p)
		}
		l.Shards = append(l.Shards, s)
	}
	return l, nil
}

// ReadLedgerFile loads a ledger from path.
func ReadLedgerFile(path string) (*Ledger, error) {
	return ReadLedgerFileFS(OS, path)
}

// ReadLedgerFileFS is ReadLedgerFile over an explicit filesystem (nil
// means OS).
func ReadLedgerFileFS(fsys FS, path string) (*Ledger, error) {
	return readFileFS(fsys, path, ReadLedger)
}
