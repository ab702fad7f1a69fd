package core

import (
	"github.com/disc-mining/disc/internal/kmin"
	"github.com/disc-mining/disc/internal/seq"
)

// discEntry is one customer inside a k-sorted database: the (reduced)
// customer sequence plus its apriori pointer — the index into the frequent
// (k-1)-sorted list of the prefix of its current k-minimum subsequence
// (§3.2, Table 9).
type discEntry struct {
	cs  *seq.CustomerSeq
	ptr int
}

// discLoop repeats the frequent k-sequence discovery procedure (Figure 4)
// from startK upwards until a level produces no frequent sequences or the
// partition shrinks below δ (Step 2.1.3.2 of Figure 2). With the bi-level
// option each call to discover handles lengths k and k+1 in one pass over
// the k-sorted database.
func (e *engine) discLoop(members []member, listPrev []seq.Pattern, startK int) error {
	// Copy: the slice is filtered in place below, and the caller's split
	// still needs its bucket intact for reassignment. The copy lives in
	// the arena (discLoop is a leaf of the partition recursion, so one
	// buffer per engine suffices).
	s := e.scratch()
	clear(s.membersBuf) // the previous partition's members must not outlive it
	s.membersBuf = append(s.membersBuf[:0], members...)
	members = s.membersBuf
	k := startK
	for len(listPrev) > 0 && len(members) >= e.minSup {
		if err := e.interrupted(); err != nil {
			return err
		}
		listK, listK1 := e.discover(members, listPrev, k)
		if e.opts.BiLevel {
			listPrev = listK1
			k += 2
		} else {
			listPrev = listK
			k++
		}
		// Customers too short for the next level can never host another
		// frequent sequence of this partition.
		alive := members[:0]
		for _, mb := range members {
			if mb.cs.Len() >= k {
				alive = append(alive, mb)
			}
		}
		members = alive
	}
	return e.interrupted()
}

// discover runs the frequent k-sequence discovery procedure of Figure 4 on
// one partition:
//
//  1. Apriori-KMS builds the k-sorted database (a locative AVL tree keyed
//     by k-minimum subsequence).
//  2. While at least δ customers remain, the candidate α₁ = Min() is
//     compared against the condition α_δ = Select(δ). Equality proves α₁
//     frequent with support = |bucket(α₁)| (Lemma 2.1); inequality proves
//     every k-sequence in [α₁, α_δ) non-frequent (Lemma 2.2).
//  3. Affected customers move to their conditional k-minimum subsequences
//     via Apriori-CKMS (bound α_δ; strict after a frequent hit, non-strict
//     otherwise — Definition 2.5) or drop out of the k-sorted database.
//
// With BiLevel on, each frequent α₁'s bucket is the §3.2 virtual
// partition: a counting-array pass over it yields the frequent
// (k+1)-sequences with k-prefix α₁ (Figure 7), so one scan of the k-sorted
// database serves two lengths.
func (e *engine) discover(members []member, listPrev []seq.Pattern, k int) (listK, listK1 []seq.Pattern) {
	tree := e.scratch().discTree()
	for i, mb := range members {
		if i&cancelCheckMask == cancelCheckMask && e.interrupted() != nil {
			return nil, nil
		}
		e.stats.KMSCalls++
		if r, ok := kmin.KMS(mb.cs, listPrev); ok {
			tree.Insert(r.Min, discEntry{cs: mb.cs, ptr: r.AprioriIdx})
		} else {
			e.stats.Dropped++
		}
	}
	for tree.Size() >= e.minSup {
		// Cooperative stopping point, checked one round in 64: the
		// caller (discLoop) notices the context or budget error and
		// discards the partial lists returned here.
		if e.stats.Rounds&cancelCheckMask == 0 && e.interrupted() != nil {
			break
		}
		e.stats.Rounds++
		alpha1, _, _ := tree.Min()
		alphaD, _ := tree.Select(e.minSup)
		if seq.Compare(alpha1, alphaD) == 0 {
			// Frequent: the bucket holds exactly the supporters of α₁.
			e.stats.FrequentHits++
			key, bucket, _ := tree.PopMin()
			e.add(key, len(bucket))
			e.budget.notePatterns(1)
			listK = append(listK, key)
			if e.opts.BiLevel {
				listK1 = e.bilevelCount(key, bucket, k, listK1)
			}
			for _, en := range bucket {
				e.stats.CKMSCalls++
				if r, ok := kmin.CKMS(en.cs, listPrev, en.ptr, key, true); ok {
					tree.Insert(r.Min, discEntry{cs: en.cs, ptr: r.AprioriIdx})
				} else {
					e.stats.Dropped++
				}
			}
			continue
		}
		// Non-frequent: skip [α₁, α_δ) wholesale and move every customer
		// below α_δ to its conditional k-minimum ≥ α_δ.
		e.stats.Skips++
		for {
			minKey, _, ok := tree.Min()
			if !ok || seq.Compare(minKey, alphaD) >= 0 {
				break
			}
			_, bucket, _ := tree.PopMin()
			for _, en := range bucket {
				e.stats.CKMSCalls++
				if r, ok := kmin.CKMS(en.cs, listPrev, en.ptr, alphaD, false); ok {
					tree.Insert(r.Min, discEntry{cs: en.cs, ptr: r.AprioriIdx})
				} else {
					e.stats.Dropped++
				}
			}
		}
	}
	sortPatternList(listK1)
	return listK, listK1
}

// bilevelCount runs the counting array over the virtual partition of a
// freshly confirmed frequent k-sequence key and records the frequent
// (k+1)-sequences with k-prefix key.
func (e *engine) bilevelCount(key seq.Pattern, bucket []discEntry, k int, listK1 []seq.Pattern) []seq.Pattern {
	s := e.scratch()
	arr := s.array(k) // depth-indexed scratch array, disjoint from the partition levels in use
	for ci, en := range bucket {
		cid := int32(ci)
		kmin.EnumExtensionsOf(en.cs, key,
			func(x seq.Item, _ int) { arr.TouchI(x, cid) },
			func(x seq.Item, _ int) { arr.TouchS(x, cid) })
	}
	s.fi = arr.FrequentI(e.minSup, s.fi[:0])
	s.fs = arr.FrequentS(e.minSup, s.fs[:0])
	exts, sups := mergeExtensions(key, arr, s.fi, s.fs)
	for i, p := range exts {
		e.add(p, sups[i])
		listK1 = append(listK1, p)
	}
	e.budget.notePatterns(len(exts))
	return listK1
}
