// Package kmin implements the k-minimum subsequence machinery of §3.2 of
// Chiu, Wu & Chen (ICDE 2004): the Apriori-KMS algorithm (Figure 5) that
// finds the minimum k-subsequence of a customer sequence whose (k-1)-prefix
// is frequent, and the Apriori-CKMS algorithm (Figure 6) that finds the
// conditional k-minimum subsequence subject to a lower bound (Definition
// 2.5).
//
// # Correctness of the leftmost-match rule (Apriori-KMS)
//
// For a fixed frequent (k-1)-sequence F, the candidate k-sequences with
// pair-prefix F contained in S are F+(z, n) — z joins F's last itemset, an
// i-extension, where n = F.LastTNo() — and F+(z, n+1) — z opens a new
// itemset, an s-extension. Let M be the greedy leftmost matching point of F
// on S and t_M its transaction. Every item right of M yields a candidate:
// items of t_M after M give (z, n); items of later transactions give
// (z, n+1). An i-extension may additionally be available only at a later
// match of F, in some transaction t' > t_M with lastItemset(F) ⊆ t' and
// z ∈ t', z > lastItem(F). But then lastItem(F) itself lies in t', right of
// M, so (lastItem(F), n+1) is a leftmost candidate with a *smaller* item
// than z — hence the extension minimum over the leftmost candidates alone
// equals the true minimum, and the paper's Figure 5 is exact.
//
// # Why Apriori-CKMS needs the complete i-extension scan
//
// Under a lower-bound constraint the same argument fails: the dominating
// smaller candidate (lastItem(F), n+1) may fall below the bound and be
// filtered out, leaving a later-match i-extension as the true constrained
// minimum. Example: S = (a)(b)(b,c), bound α_δ = <(a)(b,c)>, Ω = '≥'. The
// leftmost match of <(a)(b)> ends at transaction 2 and offers only (b,3)
// (below the bound) and (c,3), i.e. <(a)(b)(c)>; but S contains α_δ itself
// via the match of <(a)(b)> ending at transaction 3. Returning <(a)(b)(c)>
// would place the customer after α_δ in the re-sorted database and
// under-count α_δ. CKMS therefore also scans every transaction after the
// prefix match that contains F's last itemset and offers its items greater
// than lastItem(F) as (z, n) candidates, which makes the candidate set
// complete.
package kmin

import (
	"github.com/disc-mining/disc/internal/seq"
)

// SortedList is a list of frequent (k-1)-sequences in ascending comparative
// order — the paper's "(k-1)-sorted list".
type SortedList []seq.Pattern

// Result is the outcome of a KMS/CKMS run: the k-minimum subsequence and
// the index into the sorted list of its (k-1)-prefix (the paper's "apriori
// pointer").
type Result struct {
	Min        seq.Pattern
	AprioriIdx int
}

// KMS implements Apriori-KMS (Figure 5): it returns the minimum
// k-subsequence of cs whose (k-1)-prefix appears in list, iterating the
// frequent (k-1)-sequences in ascending order and extending the first one
// that matches with room to spare. ok is false when no such k-subsequence
// exists.
func KMS(cs *seq.CustomerSeq, list SortedList) (Result, bool) {
	for idx, f := range list {
		if z, tno, ok := minExtension(cs, f); ok {
			return Result{Min: f.Extend(z, tno), AprioriIdx: idx}, true
		}
	}
	return Result{}, false
}

// CKMS implements Apriori-CKMS (Figure 6) with the complete constrained
// extension search described in the package comment. It returns the minimum
// k-subsequence of cs that has its (k-1)-prefix in list and is greater than
// (strict=true) or greater than or equal to (strict=false) bound. aprioriIdx
// is the customer's apriori pointer from the previous round and is used to
// skip the head of the list; pass 0 when unknown.
func CKMS(cs *seq.CustomerSeq, list SortedList, aprioriIdx int, bound seq.Pattern, strict bool) (Result, bool) {
	k := bound.Len()
	x := bound.Prefix(k - 1)
	y := bound.LastItem()
	yno := bound.LastTNo()

	idx := aprioriIdx
	if idx < 0 {
		idx = 0
	}
	// Steps 4-7: skip frequent (k-1)-sequences smaller than prefix(α_δ).
	for idx < len(list) && seq.Compare(list[idx], x) < 0 {
		idx++
	}
	for ; idx < len(list); idx++ {
		f := list[idx]
		if seq.Compare(f, x) != 0 {
			// F > X: any extension beats the bound (the differential point
			// sits inside the first k-1 pairs), so the unconstrained
			// minimum extension is the answer.
			if z, tno, ok := minExtension(cs, f); ok {
				return Result{Min: f.Extend(z, tno), AprioriIdx: idx}, true
			}
			continue
		}
		if z, tno, ok := minConstrainedExtension(cs, f, y, yno, strict); ok {
			return Result{Min: f.Extend(z, tno), AprioriIdx: idx}, true
		}
	}
	return Result{}, false
}

// minExtension finds the minimum extension pair (z, tno) of the pattern f
// on cs: the smallest (item, transaction-number) pair, ordered item first,
// among the items right of the leftmost matching point of f.
func minExtension(cs *seq.CustomerSeq, f seq.Pattern) (z seq.Item, tno int32, ok bool) {
	tM, pos, found := cs.LeftmostMatch(f)
	if !found {
		return 0, 0, false
	}
	n := f.LastTNo()
	var best seq.Item
	var bestNo int32
	have := false
	// i-extension candidates: items of t_M after the matching point. The
	// transaction is sorted, so the first such item is their minimum.
	if pos+1 < cs.Len() && cs.TNoAt(pos+1) == cs.TNoAt(pos) {
		best, bestNo, have = cs.ItemAt(pos+1), n, true
	}
	// s-extension candidates: any item of a later transaction.
	for t := tM + 1; t < cs.NTrans(); t++ {
		for _, it := range cs.Transaction(t) {
			if !have || it < best {
				best, bestNo, have = it, n+1, true
			}
		}
	}
	return best, bestNo, have
}

// minConstrainedExtension finds the minimum extension pair (z, tno) of f on
// cs such that (z, tno) is greater than (strict) or at least (otherwise)
// the bound pair (y, yno). It scans the complete candidate set, every
// extension EnumExtensions reports: leftmost i- and s-extensions plus
// i-extensions at every later match of f.
func minConstrainedExtension(cs *seq.CustomerSeq, f seq.Pattern, y seq.Item, yno int32, strict bool) (z seq.Item, tno int32, ok bool) {
	n := f.LastTNo()
	var best seq.Item
	var bestNo int32
	have := false
	consider := func(it seq.Item, no int32) {
		c := seq.ComparePair(it, no, y, yno)
		if c < 0 || (strict && c == 0) {
			return
		}
		if !have || seq.ComparePair(it, no, best, bestNo) < 0 {
			best, bestNo, have = it, no, true
		}
	}
	EnumExtensionsOf(cs, f,
		func(it seq.Item, _ int) { consider(it, n) },
		func(it seq.Item, _ int) { consider(it, n+1) })
	return best, bestNo, have
}

// EnumExtensions reports every extension item of the non-empty pattern f
// contained in cs, walking cs from at, the flattened position of f's
// leftmost matching point M (the matchPos of seq.LeftmostMatch). onI(z,
// pos) is called for items z such that cs contains f i-extended with z,
// and onS(z, pos) for items such that cs contains f s-extended with z;
// pos is the flattened position of that occurrence of z in cs. Either
// callback may be nil. Callbacks may fire more than once for the same
// item; the counting array's last-CID mechanism absorbs duplicates. This
// drives the counting-array passes of §3.1 (frequent 2- and 3-sequences),
// the partition splits and the bi-level technique of §3.2 (Figure 7).
//
// One greedy walk serves both forms. s-extensions are the items of every
// transaction after the leftmost match t_M. i-extensions are the items
// greater than f's last item in any transaction after the match of f's
// other itemsets that contains f's last itemset; the first such
// transaction is t_M itself (see seq.LeftmostMatch), where those items are
// the ones right of the matching point.
//
// The walk visits transactions in order, so the first report of an
// extension is its leftmost match: its pos is the matching point of the
// extended pattern, from which the scans of the extension's partition
// start.
func EnumExtensions(cs *seq.CustomerSeq, f seq.Pattern, at int, onI, onS func(z seq.Item, pos int)) {
	tM := int(cs.TNoAt(at)) - 1
	last := f.LastItemset()
	lastItem := f.LastItem()
	if onI != nil {
		for p := at + 1; p < int(cs.TransStart(tM+1)); p++ {
			onI(cs.ItemAt(p), p)
		}
	}
	for t := tM + 1; t < cs.NTrans(); t++ {
		start := int(cs.TransStart(t))
		tr := cs.Transaction(t)
		if onS != nil {
			for i, it := range tr {
				onS(it, start+i)
			}
		}
		if onI != nil && tr.Contains(last) {
			for i, it := range tr {
				if it > lastItem {
					onI(it, start+i)
				}
			}
		}
	}
}

// EnumExtensionsOf is EnumExtensions for a caller that has not matched f
// in cs yet (the DISC loop's k-sorted buckets): it finds the matching
// point with seq.LeftmostMatch first, and reports nothing when cs does not
// contain f.
func EnumExtensionsOf(cs *seq.CustomerSeq, f seq.Pattern, onI, onS func(z seq.Item, pos int)) {
	if _, at, ok := cs.LeftmostMatch(f); ok {
		EnumExtensions(cs, f, at, onI, onS)
	}
}
