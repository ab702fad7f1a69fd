package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"sync"

	"github.com/disc-mining/disc/internal/core"
	"github.com/disc-mining/disc/internal/data"
	"github.com/disc-mining/disc/internal/gen"
	"github.com/disc-mining/disc/internal/jobs"
	"github.com/disc-mining/disc/internal/mining"
	"github.com/disc-mining/disc/internal/prefixspan"
)

// minDelta is the smallest absolute support a workload may mine at.
// Lower thresholds explode combinatorially: a 300-customer body at δ=2
// can drive discserve to several gigabytes of RSS.
const minDelta = 5

// spec fixes the shape of a workload's inputs.
type spec struct {
	dense  bool    // gen.DenseDefaults instead of gen.PaperDefaults
	ncust  int     // customers per database
	minsup float64 // relative minimum support
	bases  int     // distinct generated databases per run
	oracle string  // independent path for reference digests: "pseudo" or "local"
}

// delta is the absolute support: ⌈minsup·ncust⌉ for in-process mines
// (mining.AbsSupport, as discmine computes it) and ⌊minsup·ncust⌋ for
// server jobs (as discserve computes it from a relative minsup).
func (s spec) delta(server bool) int {
	if server {
		return int(s.minsup * float64(s.ncust))
	}
	return mining.AbsSupport(s.minsup, s.ncust)
}

// base is one generated database: its canonical text, split into
// customer lines so that bodies can be rotated cheaply, and the SHA-256
// of the canonical jobs.WriteResult bytes of its result.
type base struct {
	lines  [][]byte // one customer per line, newline included
	size   int      // bytes of the whole text
	db     mining.Database
	digest [sha256.Size]byte
}

// inputs is everything a run derives from its seed.
type inputs struct {
	delta int
	bases []*base
}

// genSeed is the generator seed of base i: the workload seed itself for
// base 0, so seed 1 reproduces the numbers quoted for seed 1. The stride
// keeps the bases of small seeds apart; math/rand folds seeds modulo
// 2³¹−1, so a stride of 2³² would alias seed s+2.
func genSeed(seed int64, i int) int64 { return seed + int64(i)*1_000_003 }

// prepare generates the bases of a run and their reference digests,
// computed on an independent path: PrefixSpan with pseudo-projection, or
// a local in-process core.Miner (the fleet's contract is byte-identity
// with a local run). The references run on at most nproc goroutines.
func prepare(ctx context.Context, sp spec, seed int64, server bool, procs int) (*inputs, error) {
	in := &inputs{delta: sp.delta(server), bases: make([]*base, sp.bases)}
	if in.delta < minDelta {
		return nil, fmt.Errorf("workload refused: δ=%d is below %d (minsup %g of %d customers)",
			in.delta, minDelta, sp.minsup, sp.ncust)
	}
	errs := make([]error, sp.bases)
	sem := make(chan struct{}, procs)
	var wg sync.WaitGroup
	for i := range in.bases {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			b, err := genBase(sp, genSeed(seed, i))
			if err == nil {
				err = b.reference(ctx, sp.oracle, in.delta)
			}
			in.bases[i], errs[i] = b, err
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return in, nil
}

// genBase generates the database of one base and splits its text into
// customer lines.
func genBase(sp spec, seed int64) (*base, error) {
	cfg := gen.PaperDefaults(sp.ncust)
	if sp.dense {
		cfg = gen.DenseDefaults(sp.ncust)
	}
	cfg.Seed = seed
	db, err := gen.Generate(cfg)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := data.Write(&buf, db, data.Native); err != nil {
		return nil, err
	}
	b := &base{size: buf.Len(), db: db}
	for text := buf.Bytes(); len(text) > 0; {
		i := bytes.IndexByte(text, '\n')
		if i < 0 {
			i = len(text) - 1
		}
		b.lines = append(b.lines, text[:i+1])
		text = text[i+1:]
	}
	return b, nil
}

// reference mines the base on the spec's independent path and keeps the
// digest of the canonical result.
func (b *base) reference(ctx context.Context, oracle string, delta int) error {
	var res *mining.Result
	var err error
	switch oracle {
	case "pseudo":
		res, err = prefixspan.Pseudo{}.Mine(b.db, delta)
	default:
		res, err = (&core.Miner{Opts: core.DefaultOptions()}).MineContext(ctx, b.db, delta)
	}
	if err != nil {
		return fmt.Errorf("reference mine: %w", err)
	}
	h := sha256.New()
	if err := jobs.WriteResult(h, res); err != nil {
		return err
	}
	copy(b.digest[:], h.Sum(nil))
	return nil
}

// body returns the database text with its customer lines rotated left by
// k. Every rotation holds the same customers, so it mines to the same
// result, but a different order changes the job fingerprint: the server
// cannot answer it from its result cache.
func (b *base) body(k int) []byte {
	k %= len(b.lines)
	out := make([]byte, 0, b.size)
	for _, l := range b.lines[k:] {
		out = append(out, l...)
	}
	for _, l := range b.lines[:k] {
		out = append(out, l...)
	}
	return out
}

// countWriter counts the bytes written through it.
type countWriter struct {
	w io.Writer
	n int64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}
