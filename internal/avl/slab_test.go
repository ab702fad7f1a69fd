package avl

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// entry is one (key, value) pair of the sorted-slice model.
type entry struct{ k, v int }

// TestSlabMatchesOracle is the differential property test for the slab
// tree: a random mix of insert / delete / pop-min / reset operations is
// applied to the Tree and to a sorted-slice model of (key, value) pairs
// kept in key order, with equal keys in insertion order. After every
// operation the two must agree on Size, Min (key and bucket), Select at
// every rank, Rank at probe keys, and Get buckets.
func TestSlabMatchesOracle(t *testing.T) {
	cmp := func(a, b int) int { return a - b }
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tr := New[int, int](cmp)
		var model []entry
		// span returns the model's [lo, hi) range holding key k.
		span := func(k int) (lo, hi int) {
			lo = sort.Search(len(model), func(i int) bool { return model[i].k >= k })
			hi = sort.Search(len(model), func(i int) bool { return model[i].k > k })
			return lo, hi
		}
		bucketIs := func(vals []int, lo, hi int) bool {
			if len(vals) != hi-lo {
				return false
			}
			for i, v := range vals {
				if v != model[lo+i].v {
					return false
				}
			}
			return true
		}
		agree := func() bool {
			if tr.Size() != len(model) {
				return false
			}
			mk, mv, ok := tr.Min()
			if ok != (len(model) > 0) {
				return false
			}
			if ok {
				lo, hi := span(model[0].k)
				if mk != model[0].k || !bucketIs(mv, lo, hi) {
					return false
				}
			}
			for rk := 1; rk <= len(model); rk++ {
				if k, ok := tr.Select(rk); !ok || k != model[rk-1].k {
					return false
				}
			}
			for probe := -1; probe < 42; probe += 7 {
				lo, hi := span(probe)
				if tr.Rank(probe) != lo {
					return false
				}
				vals, ok := tr.Get(probe)
				if ok != (hi > lo) || !bucketIs(vals, lo, hi) {
					return false
				}
			}
			return true
		}
		for op := 0; op < 400; op++ {
			switch r.Intn(8) {
			case 0, 1, 2, 3: // insert after any equal keys
				k := r.Intn(40)
				tr.Insert(k, op)
				_, hi := span(k)
				model = append(model, entry{})
				copy(model[hi+1:], model[hi:])
				model[hi] = entry{k, op}
			case 4, 5: // pop min bucket, compare contents
				k, vals, ok := tr.PopMin()
				if ok != (len(model) > 0) {
					return false
				}
				if !ok {
					continue
				}
				_, hi := span(k)
				if k != model[0].k || !bucketIs(vals, 0, hi) {
					return false
				}
				model = model[hi:]
			case 6: // delete random key
				if len(model) == 0 {
					continue
				}
				k := model[r.Intn(len(model))].k
				if !tr.Delete(k) {
					return false
				}
				lo, hi := span(k)
				model = append(model[:lo], model[hi:]...)
			case 7: // occasional full reset: exercises slab reuse
				if r.Intn(10) == 0 {
					tr.Reset()
					model = model[:0]
				}
			}
			if !agree() {
				return false
			}
		}
		checkInvariants(t, tr)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestPopMinBucketSurvivesInserts pins the ownership contract the DISC
// round loop relies on: the bucket returned by PopMin must remain intact
// while the caller re-Inserts into the same tree, and may only be recycled
// by the next PopMin/Delete/Reset.
func TestPopMinBucketSurvivesInserts(t *testing.T) {
	tr := New[int, int](func(a, b int) int { return a - b })
	for i := 0; i < 8; i++ {
		tr.Insert(1, 100+i)
	}
	for k := 2; k < 40; k++ {
		tr.Insert(k, k)
	}
	_, vals, ok := tr.PopMin()
	if !ok || len(vals) != 8 {
		t.Fatalf("PopMin bucket = %v %v", vals, ok)
	}
	// Re-insert aggressively while holding the popped bucket, mimicking the
	// discover loop (pop bucket, CKMS each member, insert under new keys).
	for i, v := range vals {
		if v != 100+i {
			t.Fatalf("bucket corrupted before inserts: %v", vals)
		}
		tr.Insert(50+i, v)
	}
	for i, v := range vals {
		if v != 100+i {
			t.Fatalf("bucket corrupted by inserts during iteration: index %d = %d", i, v)
		}
	}
	checkInvariants(t, tr)
}

// TestFreedBucketsHoldNoValues: a bucket that PopMin, Delete or Reset
// gave up keeps its backing array but no value, up to its capacity, so a
// pooled tree never keeps what its old values point to reachable.
func TestFreedBucketsHoldNoValues(t *testing.T) {
	tr := New[int, *int](func(a, b int) int { return a - b })
	fill := func() {
		for i := 0; i < 200; i++ {
			v := i
			tr.Insert(i%23, &v)
		}
	}
	stale := func(when string) {
		t.Helper()
		live := map[int32]bool{}
		var walk func(i int32)
		walk = func(i int32) {
			if i != 0 {
				live[i] = true
				walk(tr.nodes[i].left)
				walk(tr.nodes[i].right)
			}
		}
		walk(tr.root)
		for i := int32(1); i < int32(len(tr.vals)); i++ {
			b := tr.vals[i]
			from := 0
			if live[i] || i == tr.pending {
				from = len(b)
			}
			for j, v := range b[from:cap(b)] {
				if v != nil {
					t.Fatalf("%s: slot %d holds a stale value at %d", when, i, from+j)
				}
			}
		}
	}
	fill()
	for k := 0; k < 10; k++ {
		tr.PopMin()
	}
	tr.Delete(15)
	tr.PopMin() // frees the slot Delete left pending
	stale("after PopMin and Delete")
	fill()
	tr.Reset()
	stale("after Reset")
}

// TestResetReusesSlabs proves the arena property: after Reset, refilling a
// tree of the same shape performs zero heap allocations and zero slab
// growth events.
func TestResetReusesSlabs(t *testing.T) {
	var rec Recorder
	tr := New[int, int](func(a, b int) int { return a - b }).Observe(&rec)
	fill := func() {
		for i := 0; i < 256; i++ {
			tr.Insert(i%37, i)
		}
		for {
			if _, _, ok := tr.PopMin(); !ok {
				break
			}
		}
		for i := 0; i < 256; i++ {
			tr.Insert(i%37, i)
		}
	}
	fill()
	grows := rec.SlabGrows.Load()
	if grows == 0 {
		t.Fatal("cold fill recorded no slab growth")
	}
	tr.Reset()
	allocs := testing.AllocsPerRun(10, func() {
		fill()
		tr.Reset()
	})
	if allocs != 0 {
		t.Fatalf("warm refill allocated %.0f times per run, want 0", allocs)
	}
	if got := rec.SlabGrows.Load(); got != grows {
		t.Fatalf("warm refill grew slabs: %d -> %d", grows, got)
	}
}

// TestMemBytesTracksSlabs sanity-checks the O(1) footprint accounting:
// empty tree reports zero, filling grows it, Reset keeps it (memory is
// retained by design).
func TestMemBytesTracksSlabs(t *testing.T) {
	tr := New[int, int](func(a, b int) int { return a - b })
	if tr.MemBytes() != 0 {
		t.Fatalf("empty tree MemBytes = %d", tr.MemBytes())
	}
	for i := 0; i < 1000; i++ {
		tr.Insert(i%97, i)
	}
	full := tr.MemBytes()
	if full <= 0 {
		t.Fatalf("filled tree MemBytes = %d", full)
	}
	// 97 nodes * 16B + keys + bucket headers + ~1000 bucket slots: sanity
	// band, not an exact figure (append over-allocates capacity).
	if full < 97*16 || full > 1<<20 {
		t.Fatalf("MemBytes %d outside sanity band", full)
	}
	tr.Reset()
	if got := tr.MemBytes(); got != full {
		t.Fatalf("Reset changed MemBytes %d -> %d; slabs should be retained", full, got)
	}
}
