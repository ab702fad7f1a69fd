// Package checkpoint defines the on-disk snapshot format of an
// interrupted DISC-all run: the results and statistics of every completed
// first-level partition, so a resumed run re-executes only the unfinished
// ones and still produces a result set byte-identical to an uninterrupted
// run (the engine merges restored and freshly mined partitions in the
// same ascending key order either way).
//
// The encoding is a versioned, checksummed text format:
//
//	DISCCKPT v1 crc32=<hex> bytes=<payload length>
//	algo <miner name>
//	fingerprint <16 hex digits>
//	minsup <δ>
//	shard <index> <count>            (optional: shard-granular snapshot)
//	partitions <count>
//	partition <pairs>
//	stats <Rounds> <FrequentHits> <Skips> <KMSCalls> <CKMSCalls> <Dropped>
//	levels <count per partitioning level...>
//	nrr <float64-bits-hex/sample-count pairs per level...>
//	patterns <count>
//	<pairs> <support>        × count
//
// where <pairs> is a pattern in the paper's (item, transaction-number)
// representation, one "item:tno" token per pair. The CRC32 (IEEE) covers
// the payload after the header line; a length or checksum mismatch reads
// back as ErrCorrupt, an unknown version as ErrVersion, so a torn or
// truncated write can never silently resume from garbage. NRR means are
// stored as raw IEEE-754 bits, so restored statistics are bit-exact.
//
// The fingerprint binds a checkpoint to the job that produced it — the
// algorithm, its result-relevant options, δ and the database content.
// Resuming under a different job is detected by the caller via
// Fingerprint and rejected with ErrMismatch before any mining happens.
// The worker count is deliberately excluded: the engine's result is
// identical at every worker count, so a run may resume on different
// hardware.
package checkpoint

import (
	"bufio"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"io"
	"math"
	"strconv"
	"strings"

	"github.com/disc-mining/disc/internal/mining"
	"github.com/disc-mining/disc/internal/seq"
)

// Version is the current encoding version.
const Version = 1

// The typed failures of reading a checkpoint.
var (
	// ErrCorrupt marks a checkpoint whose checksum, length or structure
	// does not decode: a torn write, truncation or hand-editing.
	ErrCorrupt = errors.New("checkpoint: corrupt file")
	// ErrVersion marks a checkpoint written by an unknown format version.
	ErrVersion = errors.New("checkpoint: unsupported version")
	// ErrMismatch marks a checkpoint that decodes but belongs to a
	// different job (algorithm, options, δ or database changed).
	ErrMismatch = errors.New("checkpoint: job mismatch")
)

// PartitionStats is the serializable projection of the engine's
// per-partition statistics. NRRByLevel and NRRCount run in parallel: the
// mean observed non-reduction rate per level and the number of samples
// behind it (needed to merge means exactly as a live run would).
type PartitionStats struct {
	Rounds, FrequentHits, Skips, KMSCalls, CKMSCalls, Dropped int
	PartitionsByLevel                                         []int
	NRRByLevel                                                []float64
	NRRCount                                                  []int
}

// Partition is the completed work of one first-level partition: its key
// (a frequent 1-sequence), every frequent pattern mined inside it with
// exact supports, and the statistics of the subtree.
type Partition struct {
	Key      seq.Pattern
	Patterns []mining.PatternCount
	Stats    PartitionStats
}

// File is a decoded checkpoint. A ShardCount above zero marks a
// shard-granular snapshot — the partitions of shard Shard of ShardCount,
// the unit the cluster protocol ships between worker and coordinator.
// ShardCount zero (the default, and the only form older files carry) is
// a whole-job snapshot. The shard marker is advisory routing metadata:
// the fingerprint still binds the file to the whole job, and restoring a
// shard file into a differently sharded (or local) run stays correct
// because partitions restore by key.
type File struct {
	Algo        string
	Fingerprint uint64
	MinSup      int
	Shard       int
	ShardCount  int
	Partitions  []Partition
}

// Fingerprint binds a checkpoint to a mining job: the algorithm name, a
// caller-provided signature of the result-relevant options, δ, and the
// database content (customer sequences in order; customer ids are
// excluded because results do not depend on them).
func Fingerprint(algo, optionsSig string, minSup int, db mining.Database) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s\x00%s\x00%d\x00", algo, optionsSig, minSup)
	var key []byte
	for _, cs := range db {
		key = append(cs.Pattern().AppendKey(key[:0]), 0)
		h.Write(key)
	}
	return h.Sum64()
}

func writePairs(b *strings.Builder, p seq.Pattern) {
	var num [24]byte
	for i := 0; i < p.Len(); i++ {
		buf := num[:0]
		if i > 0 {
			buf = append(buf, ' ')
		}
		buf = strconv.AppendInt(buf, int64(p.ItemAt(i)), 10)
		buf = append(buf, ':')
		buf = strconv.AppendInt(buf, int64(p.TNoAt(i)), 10)
		b.Write(buf)
	}
}

// writeInts writes " n" for every n of ns.
func writeInts(b *strings.Builder, ns ...int) {
	var num [24]byte
	for _, n := range ns {
		b.Write(strconv.AppendInt(append(num[:0], ' '), int64(n), 10))
	}
}

// writeHex16 writes x as 16 lowercase hex digits, as %016x does.
func writeHex16(b *strings.Builder, x uint64) {
	const digits = "0123456789abcdef"
	var hex [16]byte
	for i := range hex {
		hex[i] = digits[x>>(60-4*i)&0xf]
	}
	b.Write(hex[:])
}

// partitionSize estimates the bytes writePartition renders for p, so
// payloads can be sized once instead of regrown.
func partitionSize(p Partition) int {
	n := 96 + 6*p.Key.Len()
	for _, pc := range p.Patterns {
		n += 4 + 6*pc.Pattern.Len()
	}
	return n
}

func parsePairs(fields []string) (seq.Pattern, error) {
	items := make([]seq.Item, len(fields))
	tnos := make([]int32, len(fields))
	for i, f := range fields {
		c := strings.IndexByte(f, ':')
		if c < 0 {
			return seq.Pattern{}, fmt.Errorf("bad pair %q", f)
		}
		it, err := strconv.ParseUint(f[:c], 10, 32)
		if err != nil {
			return seq.Pattern{}, fmt.Errorf("bad item in pair %q", f)
		}
		tn, err := strconv.ParseInt(f[c+1:], 10, 32)
		if err != nil {
			return seq.Pattern{}, fmt.Errorf("bad tno in pair %q", f)
		}
		items[i], tnos[i] = seq.Item(it), int32(tn)
	}
	return seq.PatternFromPairs(items, tnos)
}

// writePartition renders one partition block — the unit both the
// checkpoint payload and the shard ledger share.
func writePartition(b *strings.Builder, p Partition) {
	b.WriteString("partition ")
	writePairs(b, p.Key)
	b.WriteByte('\n')
	s := p.Stats
	b.WriteString("stats")
	writeInts(b, s.Rounds, s.FrequentHits, s.Skips, s.KMSCalls, s.CKMSCalls, s.Dropped)
	b.WriteByte('\n')
	b.WriteString("levels")
	writeInts(b, s.PartitionsByLevel...)
	b.WriteByte('\n')
	b.WriteString("nrr")
	for i, v := range s.NRRByLevel {
		n := 0
		if i < len(s.NRRCount) {
			n = s.NRRCount[i]
		}
		b.WriteByte(' ')
		writeHex16(b, math.Float64bits(v))
		b.WriteByte('/')
		b.WriteString(strconv.Itoa(n))
	}
	b.WriteByte('\n')
	b.WriteString("patterns")
	writeInts(b, len(p.Patterns))
	b.WriteByte('\n')
	for _, pc := range p.Patterns {
		writePairs(b, pc.Pattern)
		writeInts(b, pc.Support)
		b.WriteByte('\n')
	}
}

// payload renders everything after the header line.
func (f *File) payload() string {
	var b strings.Builder
	size := 256
	for _, p := range f.Partitions {
		size += partitionSize(p)
	}
	b.Grow(size)
	fmt.Fprintf(&b, "algo %s\n", f.Algo)
	fmt.Fprintf(&b, "fingerprint %016x\n", f.Fingerprint)
	fmt.Fprintf(&b, "minsup %d\n", f.MinSup)
	if f.ShardCount > 0 {
		fmt.Fprintf(&b, "shard %d %d\n", f.Shard, f.ShardCount)
	}
	fmt.Fprintf(&b, "partitions %d\n", len(f.Partitions))
	for _, p := range f.Partitions {
		writePartition(&b, p)
	}
	return b.String()
}

// writeDoc writes one versioned+checksummed document: a header line
// carrying magic, version, CRC32 and payload length, then the payload.
// The checkpoint and the shard ledger differ only in magic and payload
// grammar.
func writeDoc(w io.Writer, magic, payload string) (int, error) {
	header := fmt.Sprintf("%s v%d crc32=%08x bytes=%d\n",
		magic, Version, checksum(payload), len(payload))
	n, err := io.WriteString(w, header)
	if err != nil {
		return n, err
	}
	m, err := io.WriteString(w, payload)
	return n + m, err
}

// checksum is the CRC32 (IEEE) of s, computed through a small buffer
// rather than a copy of a payload that may run to megabytes.
func checksum(s string) uint32 {
	var buf [32 << 10]byte
	var sum uint32
	for len(s) > 0 {
		n := copy(buf[:], s)
		sum = crc32.Update(sum, crc32.IEEETable, buf[:n])
		s = s[n:]
	}
	return sum
}

// readDoc verifies a document's magic, version, payload length and
// checksum, returning a lineReader over the payload.
func readDoc(r io.Reader, magic string) (*lineReader, error) {
	br := bufio.NewReader(r)
	header, err := br.ReadString('\n')
	if err != nil {
		return nil, fmt.Errorf("%w: missing header: %v", ErrCorrupt, err)
	}
	var version int
	var sum uint32
	var n int
	if _, err := fmt.Sscanf(strings.TrimSuffix(header, "\n"),
		magic+" v%d crc32=%x bytes=%d", &version, &sum, &n); err != nil {
		return nil, fmt.Errorf("%w: bad header %q", ErrCorrupt, strings.TrimSpace(header))
	}
	if version != Version {
		return nil, fmt.Errorf("%w: v%d (this build reads v%d)", ErrVersion, version, Version)
	}
	payload, err := io.ReadAll(br)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if len(payload) != n {
		return nil, fmt.Errorf("%w: payload is %d bytes, header says %d", ErrCorrupt, len(payload), n)
	}
	if got := crc32.ChecksumIEEE(payload); got != sum {
		return nil, fmt.Errorf("%w: checksum %08x, header says %08x", ErrCorrupt, got, sum)
	}
	return &lineReader{lines: strings.Split(strings.TrimSuffix(string(payload), "\n"), "\n")}, nil
}

// Write renders the checkpoint to w: header line with version, CRC32 and
// payload length, then the payload. It returns the number of bytes
// written so callers can observe snapshot sizes.
func (f *File) Write(w io.Writer) (int, error) {
	return writeDoc(w, "DISCCKPT", f.payload())
}

// WriteFile writes the checkpoint atomically and durably: to path+".tmp"
// first, fsynced before the rename over path, with the parent directory
// fsynced after — so a crash (or kill -9) at any point leaves either the
// previous checkpoint or the new one under the real name, never a torn
// file. A leftover .tmp from a crash mid-write is invisible to readers
// and overwritten by the next attempt. Returns the snapshot size in
// bytes.
func (f *File) WriteFile(path string) (int, error) {
	return f.WriteFileFS(OS, path)
}

// WriteFileFS is WriteFile over an explicit filesystem (nil means OS) —
// the entry point fault-injecting callers use.
func (f *File) WriteFileFS(fsys FS, path string) (int, error) {
	return writeFileAtomic(fsys, path, f.Write)
}

// lineReader walks the payload line by line with context for errors.
type lineReader struct {
	lines []string
	pos   int
}

func (lr *lineReader) next(prefix string) ([]string, error) {
	if lr.pos >= len(lr.lines) {
		return nil, fmt.Errorf("%w: truncated payload, expected %q line", ErrCorrupt, prefix)
	}
	line := lr.lines[lr.pos]
	lr.pos++
	fields := strings.Fields(line)
	if len(fields) == 0 || fields[0] != prefix {
		return nil, fmt.Errorf("%w: line %d: expected %q, got %q", ErrCorrupt, lr.pos, prefix, line)
	}
	return fields[1:], nil
}

// tryNext consumes and returns the next line's fields when it starts
// with prefix, leaving the reader untouched otherwise — for optional
// lines, which keep the format at v1.
func (lr *lineReader) tryNext(prefix string) ([]string, bool) {
	if lr.pos >= len(lr.lines) {
		return nil, false
	}
	fields := strings.Fields(lr.lines[lr.pos])
	if len(fields) == 0 || fields[0] != prefix {
		return nil, false
	}
	lr.pos++
	return fields[1:], true
}

func atoi(s string) (int, error) { return strconv.Atoi(s) }

// Read decodes a checkpoint, verifying version, payload length and
// checksum before parsing.
func Read(r io.Reader) (*File, error) {
	lr, err := readDoc(r, "DISCCKPT")
	if err != nil {
		return nil, err
	}

	f := &File{}
	var fields []string
	fields, err = lr.next("algo")
	if err != nil {
		return nil, err
	}
	if len(fields) != 1 {
		return nil, fmt.Errorf("%w: bad algo line", ErrCorrupt)
	}
	f.Algo = fields[0]
	if fields, err = lr.next("fingerprint"); err != nil {
		return nil, err
	}
	if len(fields) != 1 {
		return nil, fmt.Errorf("%w: bad fingerprint line", ErrCorrupt)
	}
	if f.Fingerprint, err = strconv.ParseUint(fields[0], 16, 64); err != nil {
		return nil, fmt.Errorf("%w: bad fingerprint %q", ErrCorrupt, fields[0])
	}
	if fields, err = lr.next("minsup"); err != nil {
		return nil, err
	}
	if len(fields) != 1 {
		return nil, fmt.Errorf("%w: bad minsup line", ErrCorrupt)
	}
	if f.MinSup, err = atoi(fields[0]); err != nil {
		return nil, fmt.Errorf("%w: bad minsup %q", ErrCorrupt, fields[0])
	}
	if sf, ok := lr.tryNext("shard"); ok {
		if len(sf) != 2 {
			return nil, fmt.Errorf("%w: shard line has %d fields, want 2", ErrCorrupt, len(sf))
		}
		if f.Shard, err = atoi(sf[0]); err != nil {
			return nil, fmt.Errorf("%w: bad shard index %q", ErrCorrupt, sf[0])
		}
		if f.ShardCount, err = atoi(sf[1]); err != nil {
			return nil, fmt.Errorf("%w: bad shard count %q", ErrCorrupt, sf[1])
		}
		if f.ShardCount < 1 || f.Shard < 0 || f.Shard >= f.ShardCount {
			return nil, fmt.Errorf("%w: shard %d of %d out of range", ErrCorrupt, f.Shard, f.ShardCount)
		}
	}
	if fields, err = lr.next("partitions"); err != nil {
		return nil, err
	}
	nparts, err := atoi(fields[0])
	if err != nil || nparts < 0 {
		return nil, fmt.Errorf("%w: bad partition count", ErrCorrupt)
	}
	for i := 0; i < nparts; i++ {
		p, err := readPartition(lr)
		if err != nil {
			return nil, err
		}
		f.Partitions = append(f.Partitions, p)
	}
	return f, nil
}

func readPartition(lr *lineReader) (Partition, error) {
	var p Partition
	fields, err := lr.next("partition")
	if err != nil {
		return p, err
	}
	if p.Key, err = parsePairs(fields); err != nil || p.Key.IsEmpty() {
		return p, fmt.Errorf("%w: bad partition key: %v", ErrCorrupt, err)
	}
	if fields, err = lr.next("stats"); err != nil {
		return p, err
	}
	if len(fields) != 6 {
		return p, fmt.Errorf("%w: stats line has %d fields, want 6", ErrCorrupt, len(fields))
	}
	dst := []*int{&p.Stats.Rounds, &p.Stats.FrequentHits, &p.Stats.Skips,
		&p.Stats.KMSCalls, &p.Stats.CKMSCalls, &p.Stats.Dropped}
	for i, f := range fields {
		if *dst[i], err = atoi(f); err != nil {
			return p, fmt.Errorf("%w: bad stats field %q", ErrCorrupt, f)
		}
	}
	if fields, err = lr.next("levels"); err != nil {
		return p, err
	}
	for _, f := range fields {
		n, err := atoi(f)
		if err != nil {
			return p, fmt.Errorf("%w: bad level count %q", ErrCorrupt, f)
		}
		p.Stats.PartitionsByLevel = append(p.Stats.PartitionsByLevel, n)
	}
	if fields, err = lr.next("nrr"); err != nil {
		return p, err
	}
	for _, f := range fields {
		c := strings.IndexByte(f, '/')
		if c < 0 {
			return p, fmt.Errorf("%w: bad nrr pair %q", ErrCorrupt, f)
		}
		bits, err := strconv.ParseUint(f[:c], 16, 64)
		if err != nil {
			return p, fmt.Errorf("%w: bad nrr bits %q", ErrCorrupt, f)
		}
		n, err := atoi(f[c+1:])
		if err != nil {
			return p, fmt.Errorf("%w: bad nrr count %q", ErrCorrupt, f)
		}
		p.Stats.NRRByLevel = append(p.Stats.NRRByLevel, math.Float64frombits(bits))
		p.Stats.NRRCount = append(p.Stats.NRRCount, n)
	}
	if fields, err = lr.next("patterns"); err != nil {
		return p, err
	}
	npat, err := atoi(fields[0])
	if err != nil || npat < 0 {
		return p, fmt.Errorf("%w: bad pattern count", ErrCorrupt)
	}
	for j := 0; j < npat; j++ {
		if lr.pos >= len(lr.lines) {
			return p, fmt.Errorf("%w: truncated pattern list", ErrCorrupt)
		}
		line := strings.Fields(lr.lines[lr.pos])
		lr.pos++
		if len(line) < 2 {
			return p, fmt.Errorf("%w: bad pattern line %d", ErrCorrupt, lr.pos)
		}
		pat, err := parsePairs(line[:len(line)-1])
		if err != nil {
			return p, fmt.Errorf("%w: bad pattern: %v", ErrCorrupt, err)
		}
		sup, err := atoi(line[len(line)-1])
		if err != nil {
			return p, fmt.Errorf("%w: bad support %q", ErrCorrupt, line[len(line)-1])
		}
		p.Patterns = append(p.Patterns, mining.PatternCount{Pattern: pat, Support: sup})
	}
	return p, nil
}

// ReadFile loads a checkpoint from path.
func ReadFile(path string) (*File, error) {
	return ReadFileFS(OS, path)
}

// ReadFileFS is ReadFile over an explicit filesystem (nil means OS).
func ReadFileFS(fsys FS, path string) (*File, error) {
	return readFileFS(fsys, path, Read)
}
