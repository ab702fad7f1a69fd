// Package mining defines the types shared by every sequence miner in this
// repository: databases, result sets (frequent sequences with exact support
// counts), the Miner interface, support-threshold helpers and the
// non-reduction-rate (NRR) analytics of §4.2 of Chiu, Wu & Chen (ICDE
// 2004).
package mining

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"github.com/disc-mining/disc/internal/seq"
)

// Database is a set of customer sequences.
type Database []*seq.CustomerSeq

// MaxItem returns the largest item id occurring in the database.
func (db Database) MaxItem() seq.Item {
	var m seq.Item
	for _, cs := range db {
		for _, it := range cs.Items() {
			if it > m {
				m = it
			}
		}
	}
	return m
}

// TotalItems returns the total number of item occurrences.
func (db Database) TotalItems() int {
	n := 0
	for _, cs := range db {
		n += cs.Len()
	}
	return n
}

// AvgTransPerCustomer returns the paper's θ: the average number of
// transactions per customer sequence.
func (db Database) AvgTransPerCustomer() float64 {
	if len(db) == 0 {
		return 0
	}
	n := 0
	for _, cs := range db {
		n += cs.NTrans()
	}
	return float64(n) / float64(len(db))
}

// AbsSupport converts a relative minimum support threshold into the paper's
// δ (an absolute minimum support count): δ = ⌈frac·n⌉, at least 1.
//
// The product frac·n is computed in floating point, so thresholds that are
// exact in decimal can land one ulp off an integer (0.01·100 =
// 1.0000000000000002): a bare Ceil would round those up one customer too
// far. Products within a relative 1e-9 of an integer are therefore treated
// as that integer before taking the ceiling; genuine fractions (off by
// more than the guard) still round up.
func AbsSupport(frac float64, n int) int {
	x := frac * float64(n)
	var d int
	if r := math.Round(x); math.Abs(x-r) <= 1e-9*math.Max(1, math.Abs(r)) {
		d = int(r)
	} else {
		d = int(math.Ceil(x))
	}
	if d < 1 {
		d = 1
	}
	return d
}

// PatternCount is one frequent sequence with its exact support count.
type PatternCount struct {
	Pattern seq.Pattern
	Support int
}

// Result is a set of frequent sequences with supports. The zero value is
// not usable; construct with NewResult.
type Result struct {
	byKey    map[string]int // pattern key -> index into patterns
	patterns []PatternCount
}

// NewResult returns an empty result set.
func NewResult() *Result {
	return &Result{byKey: map[string]int{}}
}

// NewResultSize returns an empty result set with room for n patterns, for
// a caller that knows how many it will add.
func NewResultSize(n int) *Result {
	return &Result{byKey: make(map[string]int, n), patterns: make([]PatternCount, 0, n)}
}

// Add records a frequent pattern. Adding the same pattern twice is a bug in
// the caller and panics, because every miner here computes each support
// exactly once.
func (r *Result) Add(p seq.Pattern, support int) {
	k := p.Key()
	if _, dup := r.byKey[k]; dup {
		panic(fmt.Sprintf("mining: duplicate pattern %s", p))
	}
	r.byKey[k] = len(r.patterns)
	r.patterns = append(r.patterns, PatternCount{Pattern: p, Support: support})
}

// Len returns the number of frequent patterns.
func (r *Result) Len() int { return len(r.patterns) }

// Support returns the recorded support of p, or ok=false.
func (r *Result) Support(p seq.Pattern) (int, bool) {
	i, ok := r.byKey[p.Key()]
	if !ok {
		return 0, false
	}
	return r.patterns[i].Support, true
}

// Sorted returns the patterns in ascending comparative order.
func (r *Result) Sorted() []PatternCount {
	out := append([]PatternCount(nil), r.patterns...)
	sort.Slice(out, func(i, j int) bool {
		return seq.Compare(out[i].Pattern, out[j].Pattern) < 0
	})
	return out
}

// MaxLen returns the length of the longest frequent sequence.
func (r *Result) MaxLen() int {
	m := 0
	for _, pc := range r.patterns {
		if pc.Pattern.Len() > m {
			m = pc.Pattern.Len()
		}
	}
	return m
}

// CountByLength returns a histogram of pattern counts per length k.
func (r *Result) CountByLength() map[int]int {
	h := map[int]int{}
	for _, pc := range r.patterns {
		h[pc.Pattern.Len()]++
	}
	return h
}

// Equal reports whether r and o contain exactly the same patterns with the
// same supports.
func (r *Result) Equal(o *Result) bool {
	return r.Diff(o) == ""
}

// Diff returns a human-readable description of the first few differences
// between two result sets, or "" if identical. Used by the cross-miner
// integration tests.
func (r *Result) Diff(o *Result) string {
	var b strings.Builder
	n := 0
	note := func(format string, args ...any) bool {
		n++
		if n <= 10 {
			fmt.Fprintf(&b, format+"\n", args...)
		}
		return n < 50
	}
	for _, pc := range r.patterns {
		sup, ok := o.Support(pc.Pattern)
		if !ok {
			if !note("missing in other: %s (support %d)", pc.Pattern, pc.Support) {
				break
			}
			continue
		}
		if sup != pc.Support {
			if !note("support mismatch for %s: %d vs %d", pc.Pattern, pc.Support, sup) {
				break
			}
		}
	}
	for _, pc := range o.patterns {
		if _, ok := r.Support(pc.Pattern); !ok {
			if !note("extra in other: %s (support %d)", pc.Pattern, pc.Support) {
				break
			}
		}
	}
	if n > 10 {
		fmt.Fprintf(&b, "... and %d more differences\n", n-10)
	}
	return b.String()
}

// String summarizes the result set.
func (r *Result) String() string {
	return fmt.Sprintf("%d frequent sequences (max length %d)", r.Len(), r.MaxLen())
}

// Miner is the interface implemented by every mining algorithm in this
// repository. Mine returns all sequences with support count >= minSup.
type Miner interface {
	Name() string
	Mine(db Database, minSup int) (*Result, error)
}

// NRRByLevel computes the paper's average non-reduction rate (Eq. 2) per
// partition level from a result set, using the simplification of §4.2: the
// size of the child partition of a frequent (k+1)-sequence is its support
// count. Index 0 of the returned slice is the NRR of the original database
// (children = frequent 1-sequences, parent size = dbSize); index k is the
// average NRR of the level-k partitions (parents = frequent k-sequences
// with at least one frequent (k+1)-extension). Levels without any parent
// carry NaN-free 0 and are truncated from the tail.
func NRRByLevel(r *Result, dbSize int) []float64 {
	// Group children under their k-prefix parents.
	type agg struct {
		sum float64
		n   int
	}
	parents := map[string]*agg{} // parent pattern key -> child ratio aggregate
	supports := map[string]PatternCount{}
	for _, pc := range r.patterns {
		supports[pc.Pattern.Key()] = pc
	}
	maxLen := r.MaxLen()
	levels := make([]agg, maxLen+1) // levels[k] aggregates NRR_Q over parents Q at level k
	for _, pc := range r.patterns {
		k := pc.Pattern.Len()
		if k == 1 {
			continue
		}
		parentKey := pc.Pattern.Prefix(k - 1).Key()
		a := parents[parentKey]
		if a == nil {
			a = &agg{}
			parents[parentKey] = a
		}
		parent, ok := supports[parentKey]
		if !ok {
			// The (k-1)-prefix of a frequent k-sequence is itself frequent
			// (anti-monotone); a missing parent means the result set is
			// inconsistent.
			panic(fmt.Sprintf("mining: frequent %s has non-frequent prefix", pc.Pattern))
		}
		a.sum += float64(pc.Support) / float64(parent.Support)
		a.n++
	}
	// Per-level average over parents that have children.
	for key, a := range parents {
		k := len(key) / 5 // Key encodes 5 bytes per item
		levels[k].sum += a.sum / float64(a.n)
		levels[k].n++
	}
	// Level 0: the original database.
	var l0 agg
	for _, pc := range r.patterns {
		if pc.Pattern.Len() == 1 {
			l0.sum += float64(pc.Support) / float64(dbSize)
			l0.n++
		}
	}
	out := make([]float64, 0, maxLen+1)
	if l0.n > 0 {
		out = append(out, l0.sum/float64(l0.n))
	} else {
		out = append(out, 0)
	}
	for k := 1; k <= maxLen; k++ {
		if levels[k].n == 0 {
			out = append(out, 0)
			continue
		}
		out = append(out, levels[k].sum/float64(levels[k].n))
	}
	// Trim trailing zero levels (no parents with children there).
	for len(out) > 1 && out[len(out)-1] == 0 {
		out = out[:len(out)-1]
	}
	return out
}
