// Package avl implements the locative tree of §3.2 of Chiu, Wu & Chen
// (ICDE 2004): a height-balanced order-statistic tree whose nodes carry
// subtree value counts, so that the k-sorted database can retrieve both
// its minimum key (the candidate k-sequence α₁) and the key at any rank
// (the condition k-sequence α_δ at rank δ) in O(log n).
//
// Each distinct key holds a bucket of values (the customer sequences whose
// current k-minimum subsequence equals that key); ranks count values with
// multiplicity, exactly like positions in the paper's k-sorted database
// tables.
//
// # Memory layout
//
// Tree is an array-backed implicit order-statistic tree: structural nodes
// are 16-byte entries of a single slab ([]node) linked by int32 indices,
// and the keys and value buckets live in parallel slabs indexed by the
// same node index. Index 0 is a shared null sentinel whose height and
// size are zero, so child statistics are read without branch-per-link nil
// checks. Freed nodes go on an intrusive free list threaded through their
// left links, and Reset rewinds the whole structure, clearing the keys and
// values it held, without releasing the slabs to the garbage collector —
// a tree drawn from a per-worker arena is reused across DISC rounds and
// partitions at zero steady-state allocation cost. Tree is the DISC engine's only locative
// tree; the package tests check every operation against a sorted-slice
// model of (key, value) pairs.
package avl

import (
	"sync/atomic"
	"unsafe"
)

// Recorder accumulates structural counters for one or more trees. It is
// deliberately not a registry instrument: hot insert/delete paths count
// into local atomics and the engine folds the totals into its metrics
// once per run. A nil *Recorder is valid and costs one pointer check.
type Recorder struct {
	// Rotations counts single AVL rotations (a double rotation is two).
	Rotations atomic.Int64
	// SlabGrows counts slab reallocations: node allocations that found
	// every slab slot occupied and had to grow the backing arrays. A
	// warm, Reset-reused tree performs zero of these.
	SlabGrows atomic.Int64
}

func (r *Recorder) rotation() {
	if r != nil {
		r.Rotations.Add(1)
	}
}

func (r *Recorder) slabGrow() {
	if r != nil {
		r.SlabGrows.Add(1)
	}
}

// node is one slot of the structural slab: child links are indices into
// the same slab, height and size are the AVL height and the
// order-statistic subtree weight (values counted with multiplicity).
// Slot 0 is the null sentinel with height 0 and size 0.
type node struct {
	left, right int32
	height      int32
	size        int32
}

// Tree is the slab-allocated locative tree mapping keys to buckets of
// values. The zero value is not usable; construct with New.
//
// Ownership contract: the bucket slice returned by PopMin stays valid
// until the next PopMin, Delete or Reset call on the same tree — Inserts
// are safe while the bucket is being iterated (the freed slot is
// recycled one mutation late, see pending). This matches the DISC
// engine's pop-then-reinsert round structure exactly.
type Tree[K, V any] struct {
	cmp   func(a, b K) int
	nodes []node
	keys  []K
	vals  [][]V
	root  int32
	free  int32 // free-list head, threaded through node.left; 0 = empty
	used  int32 // slab high-water mark: slots [1, used) are live or freed
	// pending is the slot released by the most recent PopMin/Delete. It
	// joins the free list only at the next PopMin/Delete/Reset, so the
	// bucket handed to the caller cannot be aliased by an Insert that
	// happens while the caller still iterates it.
	pending   int32
	bucketCap int64 // total bucket capacity (elements), kept incrementally
	rec       *Recorder
}

// New returns an empty tree ordered by cmp (negative: a<b, zero: equal,
// positive: a>b). No slab memory is allocated until the first Insert.
func New[K, V any](cmp func(a, b K) int) *Tree[K, V] {
	return &Tree[K, V]{cmp: cmp}
}

// Observe attaches a structural recorder (nil detaches) and returns the
// tree for chaining at construction sites.
func (t *Tree[K, V]) Observe(r *Recorder) *Tree[K, V] {
	t.rec = r
	return t
}

// Reset empties the tree in O(used) time (one memclr of the key slab and
// of each used bucket) while keeping every slab and every bucket's
// capacity allocated: the next fill of comparable size performs zero
// allocations. Buckets keep their element storage; keys and values are
// cleared eagerly so that neither outlives the round that created it — a
// stale value would keep whatever it points to reachable for as long as
// the tree lives.
func (t *Tree[K, V]) Reset() {
	if t.used > 1 {
		clear(t.keys[1:t.used])
		for i := int32(1); i < t.used; i++ {
			t.clearBucket(i)
		}
	}
	t.root, t.free, t.pending = 0, 0, 0
	if len(t.nodes) > 0 {
		t.used = 1
	} else {
		t.used = 0
	}
}

// MemBytes returns the exact heap footprint of the tree's slabs: the
// node, key and bucket-header arrays plus the accumulated bucket element
// capacity. O(1); the engine feeds it to the resource-budget accounting
// at partition boundaries.
func (t *Tree[K, V]) MemBytes() int64 {
	var k K
	var v V
	var n node
	return int64(cap(t.nodes))*int64(unsafe.Sizeof(n)) +
		int64(cap(t.keys))*int64(sizeOfValue(k)) +
		int64(cap(t.vals))*int64(unsafe.Sizeof([]V(nil))) +
		t.bucketCap*int64(sizeOfValue(v))
}

func sizeOfValue[T any](v T) uintptr { return unsafe.Sizeof(v) }

// Size returns the total number of values stored (with multiplicity).
func (t *Tree[K, V]) Size() int {
	if t.root == 0 {
		return 0
	}
	return int(t.nodes[t.root].size)
}

// NumKeys returns the number of distinct keys.
func (t *Tree[K, V]) NumKeys() int {
	n := 0
	t.Ascend(func(K, []V) bool { n++; return true })
	return n
}

// Height returns the tree height (0 for empty); exposed for balance tests.
func (t *Tree[K, V]) Height() int {
	if t.root == 0 {
		return 0
	}
	return int(t.nodes[t.root].height)
}

// Insert adds the value v under the key k, creating the key's bucket if
// needed.
func (t *Tree[K, V]) Insert(k K, v V) {
	t.root = t.insert(t.root, k, v)
}

func (t *Tree[K, V]) insert(i int32, k K, v V) int32 {
	if i == 0 {
		return t.alloc(k, v)
	}
	// Child links are re-read through the slab after each recursive call:
	// the recursion may grow the slab, so no *node pointer is held across
	// it.
	switch c := t.cmp(k, t.keys[i]); {
	case c < 0:
		l := t.insert(t.nodes[i].left, k, v)
		t.nodes[i].left = l
	case c > 0:
		r := t.insert(t.nodes[i].right, k, v)
		t.nodes[i].right = r
	default:
		t.appendVal(i, v)
		t.nodes[i].size++
		return i
	}
	return t.rebalance(i)
}

// appendVal grows bucket i by one value, keeping the incremental
// bucket-capacity accounting exact.
func (t *Tree[K, V]) appendVal(i int32, v V) {
	b := t.vals[i]
	oc := cap(b)
	b = append(b, v)
	if nc := cap(b); nc != oc {
		t.bucketCap += int64(nc - oc)
	}
	t.vals[i] = b
}

// alloc claims a slot for a fresh node: first from the free list (the
// slot's previous bucket capacity is reused), then from the unused tail
// of the slab, and only when both are exhausted by growing the slabs.
func (t *Tree[K, V]) alloc(k K, v V) int32 {
	var i int32
	switch {
	case t.free != 0:
		i = t.free
		t.free = t.nodes[i].left
	case int(t.used) < len(t.nodes):
		i = t.used
		t.used++
	default:
		i = t.grow()
	}
	t.keys[i] = k
	t.nodes[i] = node{height: 1, size: 1}
	b := t.vals[i][:0]
	oc := cap(b)
	b = append(b, v)
	if nc := cap(b); nc != oc {
		t.bucketCap += int64(nc - oc)
	}
	t.vals[i] = b
	return i
}

// grow extends all three slabs by one slot (allocating the sentinel
// first if the tree has never held a node) and returns the new index.
func (t *Tree[K, V]) grow() int32 {
	var zk K
	if len(t.nodes) == 0 {
		t.nodes = append(t.nodes, node{})
		t.keys = append(t.keys, zk)
		t.vals = append(t.vals, nil)
	}
	if cap(t.nodes) == len(t.nodes) {
		t.rec.slabGrow()
	}
	i := int32(len(t.nodes))
	t.nodes = append(t.nodes, node{})
	t.keys = append(t.keys, zk)
	t.vals = append(t.vals, nil)
	t.used = i + 1
	return i
}

// flushPending moves the previously popped slot onto the free list; its
// bucket (still holding the caller-visible slice header) becomes
// reusable from here on.
func (t *Tree[K, V]) flushPending() {
	if p := t.pending; p != 0 {
		t.pending = 0
		t.freeSlot(p)
	}
}

// freeSlot pushes slot i onto the free list. The key and the bucket's
// values are cleared eagerly (they must not outlive their round); the
// bucket keeps its backing array so a future alloc of this slot appends
// into warm memory.
func (t *Tree[K, V]) freeSlot(i int32) {
	var zk K
	t.keys[i] = zk
	t.clearBucket(i)
	t.nodes[i].left = t.free
	t.free = i
}

// clearBucket zeroes bucket i's values and empties it. Every path that
// empties a bucket goes through here, so no value survives beyond a
// bucket's length.
func (t *Tree[K, V]) clearBucket(i int32) {
	clear(t.vals[i])
	t.vals[i] = t.vals[i][:0]
}

// Min returns the smallest key and its bucket. ok is false on an empty
// tree. The returned bucket slice is owned by the tree; do not mutate.
func (t *Tree[K, V]) Min() (k K, vals []V, ok bool) {
	i := t.root
	if i == 0 {
		return k, nil, false
	}
	for t.nodes[i].left != 0 {
		i = t.nodes[i].left
	}
	return t.keys[i], t.vals[i], true
}

// PopMin removes the smallest key's entire bucket and returns it. The
// returned bucket stays valid until the next PopMin, Delete or Reset;
// Inserts in between are safe (see the Tree ownership contract).
func (t *Tree[K, V]) PopMin() (k K, vals []V, ok bool) {
	t.flushPending()
	if t.root == 0 {
		return k, nil, false
	}
	var out int32
	t.root, out = t.popMin(t.root)
	t.pending = out
	return t.keys[out], t.vals[out], true
}

func (t *Tree[K, V]) popMin(i int32) (root, removed int32) {
	if t.nodes[i].left == 0 {
		return t.nodes[i].right, i
	}
	l, out := t.popMin(t.nodes[i].left)
	t.nodes[i].left = l
	return t.rebalance(i), out
}

// Select returns the key at 1-based rank r, counting values with
// multiplicity: rank 1 is the first value of the minimum key. ok is false
// when r is out of range. This locates the paper's condition k-sequence
// α_δ with r = δ.
func (t *Tree[K, V]) Select(r int) (k K, ok bool) {
	i := t.root
	if i == 0 || r < 1 || r > int(t.nodes[i].size) {
		return k, false
	}
	for {
		n := t.nodes[i]
		ls := int(t.nodes[n.left].size)
		switch {
		case r <= ls:
			i = n.left
		case r <= ls+len(t.vals[i]):
			return t.keys[i], true
		default:
			r -= ls + len(t.vals[i])
			i = n.right
		}
	}
}

// Rank returns the number of values with keys strictly smaller than k.
func (t *Tree[K, V]) Rank(k K) int {
	r := 0
	i := t.root
	for i != 0 {
		switch c := t.cmp(k, t.keys[i]); {
		case c <= 0:
			i = t.nodes[i].left
		default:
			r += int(t.nodes[t.nodes[i].left].size) + len(t.vals[i])
			i = t.nodes[i].right
		}
	}
	return r
}

// Get returns the bucket stored under k, or ok=false. The bucket is
// owned by the tree; do not mutate, and treat it as invalidated by the
// next mutating call.
func (t *Tree[K, V]) Get(k K) (vals []V, ok bool) {
	i := t.root
	for i != 0 {
		switch c := t.cmp(k, t.keys[i]); {
		case c < 0:
			i = t.nodes[i].left
		case c > 0:
			i = t.nodes[i].right
		default:
			return t.vals[i], true
		}
	}
	return nil, false
}

// Delete removes the entire bucket stored under k; it reports whether
// the key was present. Like PopMin, the freed slot is recycled one
// mutating call late.
func (t *Tree[K, V]) Delete(k K) bool {
	t.flushPending()
	var deleted bool
	t.root, deleted = t.delete(t.root, k)
	return deleted
}

func (t *Tree[K, V]) delete(i int32, k K) (int32, bool) {
	if i == 0 {
		return 0, false
	}
	var deleted bool
	switch c := t.cmp(k, t.keys[i]); {
	case c < 0:
		l, d := t.delete(t.nodes[i].left, k)
		t.nodes[i].left, deleted = l, d
	case c > 0:
		r, d := t.delete(t.nodes[i].right, k)
		t.nodes[i].right, deleted = r, d
	default:
		l, r := t.nodes[i].left, t.nodes[i].right
		t.pending = i
		if l == 0 {
			return r, true
		}
		if r == 0 {
			return l, true
		}
		// Splice the successor node (minimum of the right subtree) into
		// i's position; the successor keeps its own key and bucket.
		nr, s := t.popMin(r)
		t.nodes[s].left, t.nodes[s].right = l, nr
		return t.rebalance(s), true
	}
	if !deleted {
		return i, false
	}
	return t.rebalance(i), true
}

// Ascend visits buckets in ascending key order until fn returns false.
func (t *Tree[K, V]) Ascend(fn func(k K, vals []V) bool) {
	t.ascend(t.root, fn)
}

func (t *Tree[K, V]) ascend(i int32, fn func(K, []V) bool) bool {
	if i == 0 {
		return true
	}
	return t.ascend(t.nodes[i].left, fn) && fn(t.keys[i], t.vals[i]) && t.ascend(t.nodes[i].right, fn)
}

// update recomputes height and size of node i from its children. The
// sentinel at slot 0 contributes zero to both, so no branches are
// needed on the child links.
func (t *Tree[K, V]) update(i int32) {
	n := &t.nodes[i]
	l, r := &t.nodes[n.left], &t.nodes[n.right]
	h := l.height
	if r.height > h {
		h = r.height
	}
	n.height = h + 1
	n.size = int32(len(t.vals[i])) + l.size + r.size
}

func (t *Tree[K, V]) rebalance(i int32) int32 {
	t.update(i)
	l, r := t.nodes[i].left, t.nodes[i].right
	switch bf := t.nodes[l].height - t.nodes[r].height; {
	case bf > 1:
		if t.nodes[t.nodes[l].right].height > t.nodes[t.nodes[l].left].height {
			t.nodes[i].left = t.rotateLeft(l)
		}
		return t.rotateRight(i)
	case bf < -1:
		if t.nodes[t.nodes[r].left].height > t.nodes[t.nodes[r].right].height {
			t.nodes[i].right = t.rotateRight(r)
		}
		return t.rotateLeft(i)
	}
	return i
}

func (t *Tree[K, V]) rotateLeft(i int32) int32 {
	t.rec.rotation()
	r := t.nodes[i].right
	t.nodes[i].right = t.nodes[r].left
	t.nodes[r].left = i
	t.update(i)
	t.update(r)
	return r
}

func (t *Tree[K, V]) rotateRight(i int32) int32 {
	t.rec.rotation()
	l := t.nodes[i].left
	t.nodes[i].left = t.nodes[l].right
	t.nodes[l].right = i
	t.update(i)
	t.update(l)
	return l
}
