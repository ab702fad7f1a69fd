// Package seq implements the sequence data model of Chiu, Wu & Chen
// (ICDE 2004): items, itemsets (transactions), customer sequences, the
// flattened (item, transaction-number) pair representation of a sequence,
// and the comparative order (Definitions 2.1 and 2.2) that the DISC
// strategy sorts by.
//
// Conventions used throughout the repository:
//
//   - Items are positive int32 identifiers. Item 0 is reserved and never
//     appears in a sequence.
//   - Itemsets are canonical: sorted ascending with no duplicates. The
//     paper's Example 2.1 writes one transaction as "(d, b)"; treating
//     itemsets literally (unsorted) would make the comparative order depend
//     on the written representation of a pattern, which breaks support
//     counting across customers, so all itemsets are canonicalized at
//     construction time (see DESIGN.md).
//   - Transaction numbers in the pair representation are 1-based and
//     renumbered relative to the sequence itself, exactly as in §2 of the
//     paper: in <(a)(b)(c,d)(e)> the five items carry numbers 1,2,3,3,4.
package seq

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// Item is a single item identifier. Valid items are >= 1.
type Item int32

// Itemset is a canonical (sorted ascending, duplicate-free) set of items.
type Itemset []Item

// NewItemset builds a canonical itemset from the given items.
func NewItemset(items ...Item) Itemset {
	out := make(Itemset, len(items))
	copy(out, items)
	slices.Sort(out)
	return slices.Compact(out)
}

// ascending reports whether items is strictly ascending, i.e. already a
// canonical itemset.
func ascending(items []Item) bool {
	for i := 1; i < len(items); i++ {
		if items[i] <= items[i-1] {
			return false
		}
	}
	return true
}

// Contains reports whether the canonical itemset t contains every item of
// the canonical itemset s (that is, s ⊆ t). Both must be sorted ascending.
func (t Itemset) Contains(s Itemset) bool {
	if len(s) > len(t) {
		return false
	}
	i := 0
	for _, want := range s {
		for i < len(t) && t[i] < want {
			i++
		}
		if i >= len(t) || t[i] != want {
			return false
		}
		i++
	}
	return true
}

// Has reports whether the canonical itemset t contains the item x.
func (t Itemset) Has(x Item) bool {
	i := sort.Search(len(t), func(i int) bool { return t[i] >= x })
	return i < len(t) && t[i] == x
}

// Pattern is a sequence in the flattened pair representation of §2: parallel
// slices of items and their 1-based transaction numbers. The zero Pattern is
// the empty sequence. Patterns are immutable once built; all mutating
// helpers return fresh values.
type Pattern struct {
	items []Item
	tnos  []int32
}

// NewPattern builds a canonical pattern from a list of itemsets. Empty
// itemsets are dropped; items within an itemset are canonicalized.
func NewPattern(itemsets ...Itemset) Pattern {
	var p Pattern
	no := int32(0)
	for _, is := range itemsets {
		c := NewItemset(is...)
		if len(c) == 0 {
			continue
		}
		no++
		for _, it := range c {
			p.items = append(p.items, it)
			p.tnos = append(p.tnos, no)
		}
	}
	return p
}

// PatternFromPairs builds a pattern directly from parallel item and
// transaction-number slices. It validates canonical form: tnos must start at
// 1, be non-decreasing, increase by at most 1, and items within a
// transaction must be strictly increasing.
func PatternFromPairs(items []Item, tnos []int32) (Pattern, error) {
	if len(items) != len(tnos) {
		return Pattern{}, fmt.Errorf("seq: %d items but %d transaction numbers", len(items), len(tnos))
	}
	for i := range items {
		if items[i] < 1 {
			return Pattern{}, fmt.Errorf("seq: invalid item %d at position %d", items[i], i)
		}
		switch {
		case i == 0:
			if tnos[0] != 1 {
				return Pattern{}, fmt.Errorf("seq: first transaction number is %d, want 1", tnos[0])
			}
		case tnos[i] == tnos[i-1]:
			if items[i] <= items[i-1] {
				return Pattern{}, fmt.Errorf("seq: items %d,%d not ascending within transaction %d", items[i-1], items[i], tnos[i])
			}
		case tnos[i] == tnos[i-1]+1:
			// New transaction: any item allowed.
		default:
			return Pattern{}, fmt.Errorf("seq: transaction number jumps from %d to %d", tnos[i-1], tnos[i])
		}
	}
	p := Pattern{items: append([]Item(nil), items...), tnos: append([]int32(nil), tnos...)}
	return p, nil
}

// MustPattern is PatternFromPairs that panics on invalid input. Intended for
// tests and package-internal construction of known-valid values.
func MustPattern(items []Item, tnos []int32) Pattern {
	p, err := PatternFromPairs(items, tnos)
	if err != nil {
		panic(err)
	}
	return p
}

// Len returns the length of the pattern: the total number of item
// occurrences (the paper's k for a k-sequence).
func (p Pattern) Len() int { return len(p.items) }

// IsEmpty reports whether the pattern has no items.
func (p Pattern) IsEmpty() bool { return len(p.items) == 0 }

// NumItemsets returns the number of transactions (itemsets) in the pattern.
func (p Pattern) NumItemsets() int {
	if len(p.tnos) == 0 {
		return 0
	}
	return int(p.tnos[len(p.tnos)-1])
}

// ItemAt returns the item at flattened position i (0-based).
func (p Pattern) ItemAt(i int) Item { return p.items[i] }

// TNoAt returns the 1-based transaction number at flattened position i.
func (p Pattern) TNoAt(i int) int32 { return p.tnos[i] }

// LastItem returns the last item of the pattern. Panics on empty patterns.
func (p Pattern) LastItem() Item { return p.items[len(p.items)-1] }

// LastTNo returns the transaction number of the last item (== NumItemsets).
func (p Pattern) LastTNo() int32 { return p.tnos[len(p.tnos)-1] }

// LastTNoOrZero returns LastTNo, or 0 for the empty pattern.
func (p Pattern) LastTNoOrZero() int32 {
	if len(p.tnos) == 0 {
		return 0
	}
	return p.tnos[len(p.tnos)-1]
}

// Itemsets expands the pattern back into a slice of itemsets.
func (p Pattern) Itemsets() []Itemset {
	out := make([]Itemset, 0, p.NumItemsets())
	for i := 0; i < len(p.items); {
		j := i
		for j < len(p.items) && p.tnos[j] == p.tnos[i] {
			j++
		}
		out = append(out, Itemset(append([]Item(nil), p.items[i:j]...)))
		i = j
	}
	return out
}

// ItemsetAt returns the items of the 1-based transaction number no as a
// sub-slice of the pattern's backing array (do not mutate).
func (p Pattern) ItemsetAt(no int32) Itemset {
	lo := sort.Search(len(p.tnos), func(i int) bool { return p.tnos[i] >= no })
	hi := lo
	for hi < len(p.tnos) && p.tnos[hi] == no {
		hi++
	}
	return Itemset(p.items[lo:hi])
}

// LastItemset returns the final itemset of the pattern.
func (p Pattern) LastItemset() Itemset {
	if len(p.items) == 0 {
		return nil
	}
	return p.ItemsetAt(p.tnos[len(p.items)-1])
}

// Prefix returns the k-prefix of the pattern: its first k (item, tno) pairs,
// which is itself a valid pattern (§3.2 "k-prefix").
func (p Pattern) Prefix(k int) Pattern {
	if k > len(p.items) {
		k = len(p.items)
	}
	return Pattern{items: p.items[:k:k], tnos: p.tnos[:k:k]}
}

// ExtendI returns p with the item x appended to its last itemset
// (an i-extension). x must be greater than the last item of p.
func (p Pattern) ExtendI(x Item) Pattern {
	if len(p.items) == 0 {
		panic("seq: i-extension of empty pattern")
	}
	if x <= p.LastItem() {
		panic(fmt.Sprintf("seq: i-extension item %d not greater than last item %d", x, p.LastItem()))
	}
	return Pattern{
		items: append(p.items[:len(p.items):len(p.items)], x),
		tnos:  append(p.tnos[:len(p.tnos):len(p.tnos)], p.LastTNo()),
	}
}

// ExtendS returns p with the item x appended as a new final itemset
// (an s-extension).
func (p Pattern) ExtendS(x Item) Pattern {
	no := int32(1)
	if len(p.items) > 0 {
		no = p.LastTNo() + 1
	}
	return Pattern{
		items: append(p.items[:len(p.items):len(p.items)], x),
		tnos:  append(p.tnos[:len(p.tnos):len(p.tnos)], no),
	}
}

// Extend appends the pair (x, tno). tno must equal LastTNo() (i-extension)
// or LastTNo()+1 (s-extension).
func (p Pattern) Extend(x Item, tno int32) Pattern {
	switch {
	case len(p.items) == 0 && tno == 1:
		return p.ExtendS(x)
	case tno == p.LastTNo():
		return p.ExtendI(x)
	case tno == p.LastTNo()+1:
		return p.ExtendS(x)
	}
	panic(fmt.Sprintf("seq: invalid extension tno %d after %d", tno, p.LastTNo()))
}

// Clone returns a deep copy of the pattern.
func (p Pattern) Clone() Pattern {
	return Pattern{
		items: append([]Item(nil), p.items...),
		tnos:  append([]int32(nil), p.tnos...),
	}
}

// Equal reports whether p and q are the same sequence.
func (p Pattern) Equal(q Pattern) bool { return Compare(p, q) == 0 }

// Compare implements the comparative order of Definition 2.2 extended to
// sequences of unequal length: the flattened (item, transaction-number)
// pair lists are compared lexicographically, where a pair (i1, n1) precedes
// (i2, n2) iff i1 < i2, or i1 == i2 and n1 < n2. If one sequence is a strict
// pair-prefix of the other, the shorter one is smaller (the paper appends a
// virtual item smaller than every real item to the shorter sequence).
//
// Definition 2.1(b) as printed requires the items *and* the transaction
// numbers to differ at the differential point; Example 2.1 demonstrates that
// the intended condition is "item or transaction number differs", which is
// what this function implements.
func Compare(p, q Pattern) int {
	n := len(p.items)
	if len(q.items) < n {
		n = len(q.items)
	}
	for i := 0; i < n; i++ {
		switch {
		case p.items[i] < q.items[i]:
			return -1
		case p.items[i] > q.items[i]:
			return 1
		case p.tnos[i] < q.tnos[i]:
			return -1
		case p.tnos[i] > q.tnos[i]:
			return 1
		}
	}
	switch {
	case len(p.items) < len(q.items):
		return -1
	case len(p.items) > len(q.items):
		return 1
	}
	return 0
}

// ComparePair compares the single extension pair (x1, n1) against
// (x2, n2) under the pair order used by Compare.
func ComparePair(x1 Item, n1 int32, x2 Item, n2 int32) int {
	switch {
	case x1 < x2:
		return -1
	case x1 > x2:
		return 1
	case n1 < n2:
		return -1
	case n1 > n2:
		return 1
	}
	return 0
}

// DifferentialPoint returns the 0-based flattened position of the
// differential point of p and q per Definition 2.1, and ok=false if the
// sequences are equal (no differential point exists). If one sequence is a
// strict prefix of the other, the differential point is the length of the
// shorter sequence (the virtual-item position).
func DifferentialPoint(p, q Pattern) (pos int, ok bool) {
	n := len(p.items)
	if len(q.items) < n {
		n = len(q.items)
	}
	for i := 0; i < n; i++ {
		if p.items[i] != q.items[i] || p.tnos[i] != q.tnos[i] {
			return i, true
		}
	}
	if len(p.items) != len(q.items) {
		return n, true
	}
	return 0, false
}

// Key returns a compact byte-string key uniquely identifying the pattern,
// suitable for use as a map key. The encoding is 4 bytes of item (big
// endian, so byte order follows item order) plus 1 byte marking whether the
// pair opens a new transaction.
func (p Pattern) Key() string {
	var b strings.Builder
	b.Grow(len(p.items) * 5)
	prev := int32(0)
	for i, it := range p.items {
		b.WriteByte(byte(uint32(it) >> 24))
		b.WriteByte(byte(uint32(it) >> 16))
		b.WriteByte(byte(uint32(it) >> 8))
		b.WriteByte(byte(uint32(it)))
		if p.tnos[i] != prev {
			b.WriteByte(1)
		} else {
			b.WriteByte(0)
		}
		prev = p.tnos[i]
	}
	return b.String()
}

// AppendKey appends Key's encoding of p to b.
func (p Pattern) AppendKey(b []byte) []byte {
	prev := int32(0)
	for i, it := range p.items {
		open := byte(0)
		if p.tnos[i] != prev {
			open = 1
		}
		b = append(b, byte(uint32(it)>>24), byte(uint32(it)>>16), byte(uint32(it)>>8), byte(uint32(it)), open)
		prev = p.tnos[i]
	}
	return b
}

// CustomerSeq is a customer sequence: the ordered list of a customer's
// transactions, stored flattened for fast scanning. CID carries the
// customer id from the source database.
type CustomerSeq struct {
	CID    int
	items  []Item  // all items, transaction by transaction
	tnos   []int32 // 1-based transaction number per item
	starts []int32 // starts[t] = first flattened index of transaction t (0-based t); len = NTrans+1
}

// NewCustomerSeq builds a customer sequence from raw transactions,
// canonicalizing each transaction and dropping empty ones. It copies the
// transactions, so the caller may reuse their storage afterwards. Each of
// the flattened slices is allocated once, sized from the input, and a
// transaction is sorted and deduplicated only when it is not already
// strictly ascending.
func NewCustomerSeq(cid int, transactions ...Itemset) *CustomerSeq {
	n := 0
	for _, t := range transactions {
		n += len(t)
	}
	items := make([]Item, n)
	tnos := make([]int32, n)
	starts := make([]int32, 1, len(transactions)+1)
	w := 0
	for _, t := range transactions {
		tr := items[w : w+len(t)]
		copy(tr, t)
		if !ascending(tr) {
			slices.Sort(tr)
			tr = slices.Compact(tr)
		}
		if len(tr) == 0 {
			continue
		}
		no := int32(len(starts))
		for i := range tr {
			tnos[w+i] = no
		}
		w += len(tr)
		starts = append(starts, int32(w))
	}
	return &CustomerSeq{CID: cid, items: items[:w:w], tnos: tnos[:w:w], starts: starts}
}

// Packer builds many customer sequences into shared backing arrays. Stage
// each sequence with Begin, its transactions with Add/AddTransaction and
// EndTransaction, and keep it with Commit or drop it with Discard; Pack
// then copies every committed sequence out with one exactly sized
// allocation each for the items, the transaction numbers, the transaction
// starts and the CustomerSeq headers. Staged transactions must already be
// canonical (sorted ascending, duplicate-free): Pack does not sort. The
// staging buffers are kept across Reset, so a reused Packer allocates only
// in Pack.
type Packer struct {
	items []Item     // staged items
	ends  []int32    // staged transaction ends, as offsets into items
	seqs  []stagedCS // committed sequences
	open  stagedCS   // the sequence being staged
}

// stagedCS locates one staged sequence in the Packer's buffers: its items
// are items[item:itemEnd], its transaction ends ends[trans:transEnd].
type stagedCS struct {
	cid                            int
	item, itemEnd, trans, transEnd int32
}

// Reset drops everything staged, keeping the buffers' capacity.
func (p *Packer) Reset() {
	p.items, p.ends, p.seqs = p.items[:0], p.ends[:0], p.seqs[:0]
	p.open = stagedCS{}
}

// Begin starts staging the sequence of customer cid.
func (p *Packer) Begin(cid int) {
	p.open = stagedCS{cid: cid, item: int32(len(p.items)), trans: int32(len(p.ends))}
}

// Add appends x to the open transaction.
func (p *Packer) Add(x Item) { p.items = append(p.items, x) }

// AddTransaction appends t's items to the open transaction.
func (p *Packer) AddTransaction(t Itemset) { p.items = append(p.items, t...) }

// EndTransaction closes the open transaction; an empty one is dropped.
func (p *Packer) EndTransaction() {
	start := p.open.item
	if n := int32(len(p.ends)); n > p.open.trans {
		start = p.ends[n-1]
	}
	if int32(len(p.items)) > start {
		p.ends = append(p.ends, int32(len(p.items)))
	}
}

// Len returns the number of items staged for the open sequence.
func (p *Packer) Len() int { return len(p.items) - int(p.open.item) }

// Commit closes the open transaction and keeps the open sequence for Pack.
func (p *Packer) Commit() {
	p.EndTransaction()
	p.open.itemEnd, p.open.transEnd = int32(len(p.items)), int32(len(p.ends))
	p.seqs = append(p.seqs, p.open)
}

// Discard drops the open sequence.
func (p *Packer) Discard() {
	p.items, p.ends = p.items[:p.open.item], p.ends[:p.open.trans]
}

// Pack returns the committed sequences, in commit order.
func (p *Packer) Pack() []CustomerSeq {
	nItems, nStarts := 0, 0
	for _, sc := range p.seqs {
		nItems += int(sc.itemEnd - sc.item)
		nStarts += int(sc.transEnd-sc.trans) + 1
	}
	items := make([]Item, nItems)
	tnos := make([]int32, nItems)
	starts := make([]int32, nStarts)
	out := make([]CustomerSeq, len(p.seqs))
	w, ws := 0, 0
	for i, sc := range p.seqs {
		n, nt := int(sc.itemEnd-sc.item), int(sc.transEnd-sc.trans)
		copy(items[w:], p.items[sc.item:sc.itemEnd])
		st := starts[ws : ws+nt+1 : ws+nt+1]
		for t, end := range p.ends[sc.trans:sc.transEnd] {
			st[t+1] = end - sc.item
			for j := st[t]; j < st[t+1]; j++ {
				tnos[w+int(j)] = int32(t + 1)
			}
		}
		out[i] = CustomerSeq{CID: sc.cid, items: items[w : w+n : w+n], tnos: tnos[w : w+n : w+n], starts: st}
		w, ws = w+n, ws+nt+1
	}
	return out
}

// MemBytes reports the staging buffers' footprint.
func (p *Packer) MemBytes() int64 {
	return int64(cap(p.items)+cap(p.ends))*4 + int64(cap(p.seqs))*24
}

// Len returns the total number of item occurrences (the paper's sequence
// length).
func (cs *CustomerSeq) Len() int { return len(cs.items) }

// NTrans returns the number of transactions.
func (cs *CustomerSeq) NTrans() int { return len(cs.starts) - 1 }

// Transaction returns the items of the 0-based transaction t as a sub-slice
// (do not mutate).
func (cs *CustomerSeq) Transaction(t int) Itemset {
	return Itemset(cs.items[cs.starts[t]:cs.starts[t+1]])
}

// ItemAt returns the item at flattened position i.
func (cs *CustomerSeq) ItemAt(i int) Item { return cs.items[i] }

// TransStart returns the flattened index of the first item of the 0-based
// transaction t; TransStart(NTrans()) is the total length.
func (cs *CustomerSeq) TransStart(t int) int32 { return cs.starts[t] }

// TNoAt returns the 1-based transaction number at flattened position i.
func (cs *CustomerSeq) TNoAt(i int) int32 { return cs.tnos[i] }

// Items returns the flattened item slice (do not mutate).
func (cs *CustomerSeq) Items() []Item { return cs.items }

// Pattern returns the whole customer sequence as a Pattern.
func (cs *CustomerSeq) Pattern() Pattern {
	return Pattern{items: cs.items, tnos: cs.tnos}
}

// Itemsets returns the customer sequence as a slice of itemsets.
func (cs *CustomerSeq) Itemsets() []Itemset {
	out := make([]Itemset, cs.NTrans())
	for t := range out {
		out[t] = cs.Transaction(t)
	}
	return out
}

// Suffix returns a new customer sequence consisting of transactions
// fromTrans.. of cs, with the first of them filtered to items >= minItem.
// It is the "reduced customer sequence" primitive used by the multi-level
// partitioning of §3.1.
func (cs *CustomerSeq) Suffix(fromTrans int, minItem Item) *CustomerSeq {
	out := &CustomerSeq{CID: cs.CID}
	for t := fromTrans; t < cs.NTrans(); t++ {
		tr := cs.Transaction(t)
		if t == fromTrans {
			i := sort.Search(len(tr), func(i int) bool { return tr[i] >= minItem })
			tr = tr[i:]
		}
		if len(tr) == 0 {
			continue
		}
		out.starts = append(out.starts, int32(len(out.items)))
		no := int32(len(out.starts))
		for _, it := range tr {
			out.items = append(out.items, it)
			out.tnos = append(out.tnos, no)
		}
	}
	out.starts = append(out.starts, int32(len(out.items)))
	return out
}

// Contains reports whether cs contains the pattern p as a subsequence
// (the paper's "customer sequence supports p").
func (cs *CustomerSeq) Contains(p Pattern) bool {
	_, _, ok := cs.LeftmostMatch(p)
	return ok
}

// LeftmostMatch finds the greedy leftmost match of p in cs: each successive
// itemset of p is matched in the earliest possible transaction. On success
// it returns the 0-based transaction index holding p's final itemset and
// the flattened position in cs of p's final item (the paper's "matching
// point" M). The greedy strategy provably minimizes both. The empty
// pattern matches at (-1, -1).
//
// Because each itemset is matched in the earliest transaction after the
// previous one, no transaction between the end of the match of p's other
// itemsets and lastTrans contains p's final itemset: the transactions
// after that prefix match which contain the final itemset are exactly
// lastTrans and the later ones that contain it.
func (cs *CustomerSeq) LeftmostMatch(p Pattern) (lastTrans int, matchPos int, ok bool) {
	if len(p.items) == 0 {
		return -1, -1, true
	}
	t, nt := 0, cs.NTrans()
	for lo := 0; ; {
		hi := lo + 1
		for hi < len(p.items) && p.tnos[hi] == p.tnos[lo] {
			hi++
		}
		is := Itemset(p.items[lo:hi])
		for t < nt && !cs.Transaction(t).Contains(is) {
			t++
		}
		if t == nt {
			return 0, 0, false
		}
		if hi == len(p.items) {
			// Matching point: the position of p's last item within t.
			start := int(cs.starts[t])
			i, _ := slices.BinarySearch(cs.items[start:cs.starts[t+1]], is[len(is)-1])
			return t, start + i, true
		}
		t++
		lo = hi
	}
}

// DistinctItems appends the distinct items of cs to buf (using seen as a
// scratch bitmap indexed by item; callers must clear the touched entries or
// pass a fresh map-like slice). It returns the extended buffer. The items
// are appended in ascending order.
func (cs *CustomerSeq) DistinctItems(buf []Item, seen []bool) []Item {
	start := len(buf)
	for _, it := range cs.items {
		if !seen[it] {
			seen[it] = true
			buf = append(buf, it)
		}
	}
	tail := buf[start:]
	sort.Slice(tail, func(i, j int) bool { return tail[i] < tail[j] })
	for _, it := range tail {
		seen[it] = false
	}
	return buf
}

// MinItem returns the smallest item in cs and the 0-based transaction index
// of its leftmost occurrence (the paper's "minimum point"). ok=false for an
// empty sequence.
func (cs *CustomerSeq) MinItem() (min Item, minTrans int, ok bool) {
	if len(cs.items) == 0 {
		return 0, 0, false
	}
	min = cs.items[0]
	pos := 0
	for i, it := range cs.items {
		if it < min {
			min = it
			pos = i
		}
	}
	// Leftmost occurrence of min.
	for i, it := range cs.items {
		if it == min {
			pos = i
			break
		}
	}
	return min, int(cs.tnos[pos]) - 1, true
}

// NextMinItem returns the smallest item of cs strictly greater than x, and
// the 0-based transaction index of its leftmost occurrence. ok=false if no
// such item exists. This drives the first-level partition reassignment of
// Step 2.2 (§3.1).
func (cs *CustomerSeq) NextMinItem(x Item) (min Item, minTrans int, ok bool) {
	found := false
	var pos int
	for i, it := range cs.items {
		if it > x && (!found || it < cs.items[pos]) {
			found = true
			pos = i
		}
	}
	if !found {
		return 0, 0, false
	}
	m := cs.items[pos]
	for i, it := range cs.items {
		if it == m {
			pos = i
			break
		}
	}
	return m, int(cs.tnos[pos]) - 1, true
}

// DropItem returns the pattern with the item at flattened position i
// removed; a singleton itemset disappears entirely. The result is a
// (k-1)-subsequence of p — every maximal proper subsequence arises this
// way, which is what the GSP prune step and the closed/maximal filters
// enumerate.
func (p Pattern) DropItem(i int) Pattern {
	out := Pattern{
		items: make([]Item, 0, len(p.items)-1),
		tnos:  make([]int32, 0, len(p.items)-1),
	}
	// Whether the dropped item's transaction survives.
	lo, hi := i, i+1
	for lo > 0 && p.tnos[lo-1] == p.tnos[i] {
		lo--
	}
	for hi < len(p.items) && p.tnos[hi] == p.tnos[i] {
		hi++
	}
	gone := hi-lo == 1 // the itemset held only the dropped item
	for j := range p.items {
		if j == i {
			continue
		}
		no := p.tnos[j]
		if gone && no > p.tnos[i] {
			no--
		}
		out.items = append(out.items, p.items[j])
		out.tnos = append(out.tnos, no)
	}
	return out
}
