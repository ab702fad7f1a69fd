package kmin

import (
	"math/rand"
	"sort"
	"testing"

	"github.com/disc-mining/disc/internal/seq"
)

func pat(s string) seq.Pattern { return seq.MustParsePattern(s) }

func cust(cid int, s string) *seq.CustomerSeq { return seq.MustParseCustomerSeq(cid, s) }

// fullList returns every distinct (k-1)-subsequence of cs as the sorted
// list, so that KMS degenerates to the unrestricted k-minimum subsequence.
func fullList(cs *seq.CustomerSeq, k int) SortedList {
	return SortedList(AllKSubsequences(cs, k-1))
}

// TestKMinExample22 checks the k-minimum subsequences of Example 2.2 under
// canonical itemsets. A = <(a,c,d)(d,b)> canonicalizes to <(a,c,d)(b,d)>;
// the 1- and 2-minimums match the paper; from k=3 on, the canonical form
// admits <(a)(b,d)> which the paper's literal "(d, b)" ordering hides (see
// DESIGN.md).
func TestKMinExample22(t *testing.T) {
	A := cust(1, "(a, c, d)(d, b)")
	want := map[int]string{
		1: "<(a)>",
		2: "<(a)(b)>",
		3: "<(a)(b, d)>",
		4: "<(a, c)(b, d)>",
		5: "<(a, c, d)(b, d)>",
	}
	for k := 1; k <= 5; k++ {
		var res Result
		var ok bool
		if k == 1 {
			subs := AllKSubsequences(A, 1)
			if len(subs) == 0 {
				t.Fatal("no 1-subsequences")
			}
			res, ok = Result{Min: subs[0]}, true
		} else {
			res, ok = KMS(A, fullList(A, k))
		}
		if !ok {
			t.Fatalf("k=%d: no minimum found", k)
		}
		if res.Min.Letters() != want[k] {
			t.Errorf("k=%d minimum = %s, want %s", k, res.Min.Letters(), want[k])
		}
	}
	// B = <(a,d,e)(a)> is already canonical; its 3-minimum matches the
	// paper: <(a, d)(a)>.
	B := cust(2, "(a, d, e)(a)")
	res, ok := KMS(B, fullList(B, 3))
	if !ok || res.Min.Letters() != "<(a, d)(a)>" {
		t.Errorf("3-minimum of B = %v %v, want <(a, d)(a)>", res.Min.Letters(), ok)
	}
}

// TestKMinTable3 reproduces Table 3: the 3-minimum subsequences of the
// Table 1 database.
func TestKMinTable3(t *testing.T) {
	want := map[int]string{
		1: "<(a)(b)(b)>",
		2: "<(b)(d)(e)>",
		3: "<(b, f, g)>",
		4: "<(a)(b)(b)>",
	}
	for cid, w := range want {
		cs := table1()[cid-1]
		res, ok := KMS(cs, fullList(cs, 3))
		if !ok || res.Min.Letters() != w {
			t.Errorf("CID %d 3-minimum = %s (%v), want %s", cid, res.Min.Letters(), ok, w)
		}
	}
}

func table1() []*seq.CustomerSeq {
	return []*seq.CustomerSeq{
		cust(1, "(a, e, g)(b)(h)(f)(c)(b, f)"),
		cust(2, "(b)(d, f)(e)"),
		cust(3, "(b, f, g)"),
		cust(4, "(f)(a, g)(b, f, h)(b, f)"),
	}
}

// TestAprioriKMSTable9 reproduces Example 3.3 / Table 9: generating the
// 4-minimum subsequences of the <(a)(a)>-partition with the 3-sorted list
// {<(a)(a,e)>, <(a)(a,g)>, <(a)(a,h)>}.
func TestAprioriKMSTable9(t *testing.T) {
	list := SortedList{pat("(a)(a, e)"), pat("(a)(a, g)"), pat("(a)(a, h)")}
	partition := map[int]string{
		1: "(a)(a, g, h)(c)",
		2: "(b)(a)(a, c, e, g)",
		3: "(a, f, g)(a, e, g, h)(c, g, h)",
		4: "(f)(a, f)(a, c, e, g, h)",
		6: "(a, f)(a, e, g, h)",
		7: "(a, g)(a, e, g)(g, h)",
	}
	want := map[int]struct {
		min string
		ptr int // 0-based index into the 3-sorted list
	}{
		1: {"<(a)(a, g)(c)>", 1},
		2: {"<(a)(a, e, g)>", 0},
		3: {"<(a)(a, e)(c)>", 0},
		4: {"<(a)(a, e, g)>", 0},
		6: {"<(a)(a, e, g)>", 0},
		7: {"<(a)(a, e, g)>", 0},
	}
	for cid, body := range partition {
		res, ok := KMS(cust(cid, body), list)
		if !ok {
			t.Fatalf("CID %d: no 4-minimum", cid)
		}
		if res.Min.Letters() != want[cid].min || res.AprioriIdx != want[cid].ptr {
			t.Errorf("CID %d 4-minimum = %s ptr %d, want %s ptr %d",
				cid, res.Min.Letters(), res.AprioriIdx, want[cid].min, want[cid].ptr)
		}
	}
}

// TestAprioriCKMSExample34 reproduces Example 3.4: the conditional
// 4-minimum subsequence of CID 3 under bound <(a)(a,e,g)> with Ω = '≥' is
// <(a)(a,e,g)> itself.
func TestAprioriCKMSExample34(t *testing.T) {
	list := SortedList{pat("(a)(a, e)"), pat("(a)(a, g)"), pat("(a)(a, h)")}
	cs := cust(3, "(a, f, g)(a, e, g, h)(c, g, h)")
	res, ok := CKMS(cs, list, 0, pat("(a)(a, e, g)"), false)
	if !ok || res.Min.Letters() != "<(a)(a, e, g)>" {
		t.Fatalf("CKMS = %s (%v), want <(a)(a, e, g)>", res.Min.Letters(), ok)
	}
}

// TestCKMSLaterMatchIExtension is the correctness-fix case from the package
// comment: the bound itself is contained in S but only reachable through an
// i-extension at a non-leftmost match of the prefix.
func TestCKMSLaterMatchIExtension(t *testing.T) {
	cs := cust(1, "(a)(b)(b, c)")
	list := SortedList{pat("(a)(b)")}
	bound := pat("(a)(b, c)")
	res, ok := CKMS(cs, list, 0, bound, false)
	if !ok || !res.Min.Equal(bound) {
		t.Fatalf("CKMS = %s (%v), want %s", res.Min.Letters(), ok, bound.Letters())
	}
	// With Ω = '>' the bound itself is excluded and the leftmost
	// s-extension <(a)(b)(b)> is next... but it is smaller than the bound;
	// the true next is <(a)(b)(c)>.
	res, ok = CKMS(cs, list, 0, bound, true)
	if !ok || res.Min.Letters() != "<(a)(b)(c)>" {
		t.Fatalf("strict CKMS = %s (%v), want <(a)(b)(c)>", res.Min.Letters(), ok)
	}
}

func TestKMSNoResult(t *testing.T) {
	cs := cust(1, "(a)(b)")
	// <(a)(b)> matches but its matching point is the end of the sequence.
	if _, ok := KMS(cs, SortedList{pat("(a)(b)")}); ok {
		t.Fatal("KMS should fail when the only match ends the sequence")
	}
	// No frequent prefix contained at all.
	if _, ok := KMS(cs, SortedList{pat("(c)")}); ok {
		t.Fatal("KMS should fail when no prefix matches")
	}
	if _, ok := KMS(cs, nil); ok {
		t.Fatal("KMS with an empty list should fail")
	}
}

func TestCKMSSkipsToBoundPrefix(t *testing.T) {
	cs := cust(1, "(a)(a)(b)(c)")
	list := SortedList{pat("(a)(a)"), pat("(a)(b)"), pat("(b)(c)")}
	// Bound <(a)(b)(x)> with prefix <(a)(b)>: list entries before it must
	// be skipped even with aprioriIdx = 0.
	bound := pat("(a)(b)(a)")
	res, ok := CKMS(cs, list, 0, bound, false)
	if !ok || res.Min.Letters() != "<(a)(b)(c)>" {
		t.Fatalf("CKMS = %s (%v), want <(a)(b)(c)>", res.Min.Letters(), ok)
	}
	if res.AprioriIdx != 1 {
		t.Errorf("AprioriIdx = %d, want 1", res.AprioriIdx)
	}
}

// --- differential tests against the exhaustive oracle ---

func randomCustomer(r *rand.Rand, n, maxTrans, maxPerTrans int) *seq.CustomerSeq {
	nt := 1 + r.Intn(maxTrans)
	sets := make([]seq.Itemset, nt)
	for i := range sets {
		sz := 1 + r.Intn(maxPerTrans)
		var is seq.Itemset
		for j := 0; j < sz; j++ {
			is = append(is, seq.Item(1+r.Intn(n)))
		}
		sets[i] = is
	}
	return seq.NewCustomerSeq(0, sets...)
}

// randomList builds a random plausible (k-1)-sorted list by sampling
// subsequences of random customers.
func randomList(r *rand.Rand, k int, n int) SortedList {
	set := map[string]seq.Pattern{}
	for i := 0; i < 3; i++ {
		cs := randomCustomer(r, n, 4, 3)
		for _, p := range AllKSubsequences(cs, k-1) {
			if r.Intn(2) == 0 {
				set[p.Key()] = p
			}
		}
	}
	var out SortedList
	for _, p := range set {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return seq.Compare(out[i], out[j]) < 0 })
	return out
}

func TestKMSMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 1500; i++ {
		k := 2 + r.Intn(3)
		cs := randomCustomer(r, 5, 5, 3)
		list := randomList(r, k, 5)
		got, gok := KMS(cs, list)
		want, wok := RefKMS(cs, list, k)
		if gok != wok {
			t.Fatalf("k=%d cs=%s list=%v: KMS ok=%v oracle ok=%v",
				k, cs.Pattern().Letters(), list, gok, wok)
		}
		if gok && !got.Min.Equal(want) {
			t.Fatalf("k=%d cs=%s: KMS=%s oracle=%s",
				k, cs.Pattern().Letters(), got.Min.Letters(), want.Letters())
		}
		if gok && !list[got.AprioriIdx].Equal(got.Min.Prefix(k-1)) {
			t.Fatalf("apriori pointer inconsistent: %s vs %s",
				list[got.AprioriIdx].Letters(), got.Min.Prefix(k-1).Letters())
		}
	}
}

func TestCKMSMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 1500; i++ {
		k := 2 + r.Intn(3)
		cs := randomCustomer(r, 5, 5, 3)
		list := randomList(r, k, 5)
		if len(list) == 0 {
			continue
		}
		// A plausible bound: extend a random list entry with a random pair.
		f := list[r.Intn(len(list))]
		var bound seq.Pattern
		if x := seq.Item(1 + r.Intn(5)); x > f.LastItem() && r.Intn(2) == 0 {
			bound = f.ExtendI(x)
		} else {
			bound = f.ExtendS(seq.Item(1 + r.Intn(5)))
		}
		strict := r.Intn(2) == 0
		got, gok := CKMS(cs, list, 0, bound, strict)
		want, wok := RefCKMS(cs, list, bound, strict)
		if gok != wok {
			t.Fatalf("k=%d cs=%s bound=%s strict=%v: CKMS ok=%v oracle ok=%v",
				k, cs.Pattern().Letters(), bound.Letters(), strict, gok, wok)
		}
		if gok && !got.Min.Equal(want) {
			t.Fatalf("k=%d cs=%s bound=%s strict=%v: CKMS=%s oracle=%s",
				k, cs.Pattern().Letters(), bound.Letters(), strict,
				got.Min.Letters(), want.Letters())
		}
	}
}

// TestCKMSAprioriPointerSkip: starting CKMS from the customer's apriori
// pointer must not change the result as long as the pointer is at or below
// the bound prefix position.
func TestCKMSAprioriPointerSkip(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		k := 2 + r.Intn(2)
		cs := randomCustomer(r, 5, 5, 3)
		list := randomList(r, k, 5)
		if len(list) == 0 {
			continue
		}
		f := list[r.Intn(len(list))]
		bound := f.ExtendS(seq.Item(1 + r.Intn(5)))
		// Any pointer position pointing at or before the bound prefix is
		// valid; the bound prefix position is the largest safe value.
		safe := 0
		for safe < len(list) && seq.Compare(list[safe], f) < 0 {
			safe++
		}
		a, aok := CKMS(cs, list, 0, bound, false)
		b, bok := CKMS(cs, list, safe, bound, false)
		if aok != bok || (aok && !a.Min.Equal(b.Min)) {
			t.Fatalf("pointer skip changed result: %v/%v vs %v/%v", a.Min, aok, b.Min, bok)
		}
	}
}

// TestEnumExtensionsMatchesContainment: EnumExtensions reports exactly the
// extensions cs contains, and the first report of each carries the
// matching point of the extended pattern, so the partition an extension
// files cs under can start its scans there.
func TestEnumExtensionsMatchesContainment(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for i := 0; i < 1500; i++ {
		cs := randomCustomer(r, 5, 5, 3)
		k := 1 + r.Intn(3)
		subs := AllKSubsequences(cs, k)
		if len(subs) == 0 {
			continue
		}
		f := subs[r.Intn(len(subs))]
		firstI := map[seq.Item]int{}
		firstS := map[seq.Item]int{}
		first := func(m map[seq.Item]int) func(seq.Item, int) {
			return func(z seq.Item, pos int) {
				if _, ok := m[z]; !ok {
					m[z] = pos
				}
			}
		}
		EnumExtensionsOf(cs, f, first(firstI), first(firstS))
		check := func(form string, ext seq.Pattern, contained bool, got map[seq.Item]int, x seq.Item) {
			t.Helper()
			pos, reported := got[x]
			if reported != contained {
				t.Fatalf("%s-ext %d of %s in %s: got %v want %v",
					form, x, f.Letters(), cs.Pattern().Letters(), reported, contained)
			}
			if !reported {
				return
			}
			if _, want, _ := cs.LeftmostMatch(ext); pos != want {
				t.Fatalf("%s-ext %d of %s in %s: first report at %d, leftmost matching point %d",
					form, x, f.Letters(), cs.Pattern().Letters(), pos, want)
			}
		}
		for x := seq.Item(1); x <= 5; x++ {
			ext := f.ExtendS(x)
			check("s", ext, cs.Contains(ext), firstS, x)
			if x > f.LastItem() {
				ext = f.ExtendI(x)
				check("i", ext, cs.Contains(ext), firstI, x)
			} else {
				check("i", f, false, firstI, x)
			}
		}
	}
}

func TestAllKSubsequencesBasics(t *testing.T) {
	cs := cust(1, "(a, b)(a)")
	subs := AllKSubsequences(cs, 2)
	var got []string
	for _, p := range subs {
		got = append(got, p.Letters())
	}
	want := []string{"<(a)(a)>", "<(a, b)>", "<(b)(a)>"}
	if len(got) != len(want) {
		t.Fatalf("AllKSubsequences = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("AllKSubsequences = %v, want %v", got, want)
		}
	}
	if AllKSubsequences(cs, 0) != nil {
		t.Error("k=0 should yield nil")
	}
	if len(AllKSubsequences(cs, 4)) != 0 {
		t.Error("k beyond length should yield nothing")
	}
}
