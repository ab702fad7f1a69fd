// Package counting implements the counting-array mechanism of §3.1 of
// Chiu, Wu & Chen (ICDE 2004): per-item support accumulators for the two
// extension forms <(λ)(x)> (s-extension) and <(λx)> (i-extension), each
// cell paired with the last customer id that touched it so that repeated
// occurrences inside one customer sequence count once (Figure 3).
//
// Arrays are reset in O(1) by epoch stamping, since DISC-all resets one per
// partition and per virtual partition.
package counting

import (
	"slices"
	"sync/atomic"

	"github.com/disc-mining/disc/internal/seq"
)

// Recorder accumulates counting-array statistics. Like avl.Recorder it
// is a local atomic sink, not a registry instrument: TouchS/TouchI are
// the innermost loop of DISC's support counting, so the uninstrumented
// path must stay a single pointer check. A nil *Recorder is valid.
type Recorder struct {
	// DedupHits counts touches suppressed by the last-customer-id check
	// — repeated occurrences inside one customer sequence that the
	// Figure 3 mechanism refuses to double count.
	DedupHits atomic.Int64
}

func (r *Recorder) dedup() {
	if r != nil {
		r.DedupHits.Add(1)
	}
}

// Array accumulates support counts for s-form and i-form single-item
// extensions of a fixed prefix.
type Array struct {
	epoch      uint32
	supS, supI []int32
	cidS, cidI []int32
	epS, epI   []uint32 // epoch stamp per cell
	touchedS   []seq.Item
	touchedI   []seq.Item
	maxItem    seq.Item
	rec        *Recorder
}

// Observe attaches a recorder (nil detaches) and returns the array for
// chaining. Pooled arrays keep their recorder across Reset.
func (a *Array) Observe(r *Recorder) *Array {
	a.rec = r
	return a
}

// New returns an array for items in [1, maxItem].
func New(maxItem seq.Item) *Array {
	n := int(maxItem) + 1
	return &Array{
		epoch: 1,
		supS:  make([]int32, n), supI: make([]int32, n),
		cidS: make([]int32, n), cidI: make([]int32, n),
		epS: make([]uint32, n), epI: make([]uint32, n),
		maxItem: maxItem,
	}
}

// Reset clears all counts in O(1).
func (a *Array) Reset() {
	a.epoch++
	a.touchedS = a.touchedS[:0]
	a.touchedI = a.touchedI[:0]
}

// TouchS records that customer cid supports the s-form extension with item
// x; repeated calls with the same cid are counted once.
func (a *Array) TouchS(x seq.Item, cid int32) {
	if a.epS[x] != a.epoch {
		a.epS[x] = a.epoch
		a.supS[x] = 1
		a.cidS[x] = cid
		a.touchedS = append(a.touchedS, x)
		return
	}
	if a.cidS[x] != cid {
		a.cidS[x] = cid
		a.supS[x]++
		return
	}
	a.rec.dedup()
}

// TouchI records that customer cid supports the i-form extension with item
// x; repeated calls with the same cid are counted once.
func (a *Array) TouchI(x seq.Item, cid int32) {
	if a.epI[x] != a.epoch {
		a.epI[x] = a.epoch
		a.supI[x] = 1
		a.cidI[x] = cid
		a.touchedI = append(a.touchedI, x)
		return
	}
	if a.cidI[x] != cid {
		a.cidI[x] = cid
		a.supI[x]++
		return
	}
	a.rec.dedup()
}

// SupS returns the s-form support of item x.
func (a *Array) SupS(x seq.Item) int {
	if a.epS[x] != a.epoch {
		return 0
	}
	return int(a.supS[x])
}

// SupI returns the i-form support of item x.
func (a *Array) SupI(x seq.Item) int {
	if a.epI[x] != a.epoch {
		return 0
	}
	return int(a.supI[x])
}

// FrequentS appends to buf the items whose s-form support is at least
// minSup, in ascending item order, and returns the extended buffer.
func (a *Array) FrequentS(minSup int, buf []seq.Item) []seq.Item {
	return a.frequent(a.touchedS, a.supS, a.epS, minSup, buf)
}

// FrequentI appends to buf the items whose i-form support is at least
// minSup, in ascending item order, and returns the extended buffer.
func (a *Array) FrequentI(minSup int, buf []seq.Item) []seq.Item {
	return a.frequent(a.touchedI, a.supI, a.epI, minSup, buf)
}

func (a *Array) frequent(touched []seq.Item, sup []int32, ep []uint32, minSup int, buf []seq.Item) []seq.Item {
	// touched is unsorted; results must come out in item order. The
	// touched set is small relative to maxItem in deep partitions, so
	// filter it rather than scanning the whole array, then sort only the
	// survivors, in place in the caller's buffer.
	start := len(buf)
	for _, x := range touched {
		if ep[x] == a.epoch && int(sup[x]) >= minSup {
			buf = append(buf, x)
		}
	}
	slices.Sort(buf[start:])
	return buf
}

// MemBytes returns the array's slab footprint: six per-item cell arrays
// plus the touched lists. O(1); feeds the engine's resource-budget
// accounting.
func (a *Array) MemBytes() int64 {
	return int64(cap(a.supS)+cap(a.supI)+cap(a.cidS)+cap(a.cidI))*4 +
		int64(cap(a.epS)+cap(a.epI))*4 +
		int64(cap(a.touchedS)+cap(a.touchedI))*4
}
