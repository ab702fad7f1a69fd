package core

import (
	"testing"

	"github.com/disc-mining/disc/internal/mining"
	"github.com/disc-mining/disc/internal/seq"
)

// partitionMembers returns the members of key's partition among db: the
// customers containing key, each at key's leftmost matching point (-1 for
// the root's empty key), as the scan filing them would record it.
func partitionMembers(key seq.Pattern, db []*seq.CustomerSeq) []member {
	var out []member
	for _, cs := range db {
		if _, at, ok := cs.LeftmostMatch(key); ok {
			out = append(out, member{cs: cs, at: at})
		}
	}
	return out
}

// patternResult collects an engine's patterns into a result set.
func patternResult(pats []mining.PatternCount) *mining.Result {
	res := mining.NewResult()
	for _, pc := range pats {
		res.Add(pc.Pattern, pc.Support)
	}
	return res
}

// TestDiscoverGoldenTables8to10 drives the frequent k-sequence discovery
// procedure (Figure 4) directly over the paper's <(a)(a)>-partition
// (Tables 8-10, δ=3): the customers are the reduced sequences of Table 7
// and the 3-sorted list is {<(a)(a,e)>, <(a)(a,g)>, <(a)(a,h)>}. The
// procedure must find every frequent 4-sequence with a prefix in that
// list, and — via the bi-level counting of Example 3.5 / Figure 7 —
// exactly one frequent 5-sequence, <(a)(a,e,g,h)>, with support 3.
func TestDiscoverGoldenTables8to10(t *testing.T) {
	partition := []string{
		"(a)(a, g, h)(c)",                // CID 1
		"(b)(a)(a, c, e, g)",             // CID 2
		"(a, f, g)(a, e, g, h)(c, g, h)", // CID 3
		"(f)(a, f)(a, c, e, g, h)",       // CID 4
		"(a, f)(a, e, g, h)",             // CID 6
		"(a, g)(a, e, g)(g, h)",          // CID 7
	}
	cids := []int{1, 2, 3, 4, 6, 7}
	var db []*seq.CustomerSeq
	for i, body := range partition {
		db = append(db, seq.MustParseCustomerSeq(cids[i], body))
	}
	members := partitionMembers(seq.MustParsePattern("(a)(a)"), db)
	list3 := []seq.Pattern{
		seq.MustParsePattern("(a)(a, e)"),
		seq.MustParsePattern("(a)(a, g)"),
		seq.MustParsePattern("(a)(a, h)"),
	}
	e := &engine{minSup: 3, maxItem: 8, opts: Options{BiLevel: true}}
	listK, listK1 := e.discover(members, list3, 4)
	res := patternResult(e.pats)

	wantK := []string{"<(a)(a, e, g)>", "<(a)(a, e, h)>", "<(a)(a, g, h)>"}
	if len(listK) != len(wantK) {
		var got []string
		for _, p := range listK {
			got = append(got, p.Letters())
		}
		t.Fatalf("frequent 4-sequences = %v, want %v", got, wantK)
	}
	for i, w := range wantK {
		if listK[i].Letters() != w {
			t.Errorf("listK[%d] = %s, want %s", i, listK[i].Letters(), w)
		}
	}
	// Example 3.5: exactly one frequent 5-sequence.
	if len(listK1) != 1 || listK1[0].Letters() != "<(a)(a, e, g, h)>" {
		t.Fatalf("frequent 5-sequences = %v, want only <(a)(a, e, g, h)>", listK1)
	}
	// Supports: <(a)(a,e,g)> is supported by CIDs 2,3,4,6,7 (Table 10);
	// <(a)(a,g,h)> by 1,3,4,6; <(a)(a,e,h)> and <(a)(a,e,g,h)> by 3,4,6
	// (Figure 7's counting array reaches 3 on (_h)).
	wantSup := map[string]int{
		"(a)(a, e, g)":    5,
		"(a)(a, e, h)":    3,
		"(a)(a, g, h)":    4,
		"(a)(a, e, g, h)": 3,
	}
	for s, w := range wantSup {
		sup, ok := res.Support(seq.MustParsePattern(s))
		if !ok || sup != w {
			t.Errorf("support of <%s> = %d,%v, want %d", s, sup, ok, w)
		}
	}
	// Lemma 2.2 must have fired at least once in this partition (Example
	// 3.4 skips <(a)(a, e)(c)>).
	if e.stats.Skips == 0 {
		t.Error("expected at least one skip event in the Table 9 partition")
	}
	if e.stats.FrequentHits != 3 {
		t.Errorf("frequent hits = %d, want 3", e.stats.FrequentHits)
	}
}

// TestDiscoverWithoutBiLevel: the same partition mined level by level must
// find the same sequences, with the 5-sequences coming from a second
// k-sorted database instead of the counting array.
func TestDiscoverWithoutBiLevel(t *testing.T) {
	partition := []string{
		"(a)(a, g, h)(c)",
		"(b)(a)(a, c, e, g)",
		"(a, f, g)(a, e, g, h)(c, g, h)",
		"(f)(a, f)(a, c, e, g, h)",
		"(a, f)(a, e, g, h)",
		"(a, g)(a, e, g)(g, h)",
	}
	var db []*seq.CustomerSeq
	for i, body := range partition {
		db = append(db, seq.MustParseCustomerSeq(i+1, body))
	}
	members := partitionMembers(seq.MustParsePattern("(a)(a)"), db)
	list3 := []seq.Pattern{
		seq.MustParsePattern("(a)(a, e)"),
		seq.MustParsePattern("(a)(a, g)"),
		seq.MustParsePattern("(a)(a, h)"),
	}
	e := &engine{minSup: 3, maxItem: 8, opts: Options{BiLevel: false}}
	listK, listK1 := e.discover(members, list3, 4)
	if len(listK) != 3 || len(listK1) != 0 {
		t.Fatalf("non-bilevel discover: %d 4-seqs, %d 5-seqs", len(listK), len(listK1))
	}
	// Second pass at k=5 from the frequent 4-list.
	list5, _ := e.discover(members, listK, 5)
	if len(list5) != 1 || list5[0].Letters() != "<(a)(a, e, g, h)>" {
		t.Fatalf("5-sequences = %v", list5)
	}
}
