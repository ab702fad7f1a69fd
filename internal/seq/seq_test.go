package seq

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestNewItemsetCanonicalizes(t *testing.T) {
	is := NewItemset(4, 2, 4, 1, 2)
	want := Itemset{1, 2, 4}
	if len(is) != len(want) {
		t.Fatalf("NewItemset = %v, want %v", is, want)
	}
	for i := range want {
		if is[i] != want[i] {
			t.Fatalf("NewItemset = %v, want %v", is, want)
		}
	}
}

func TestItemsetContains(t *testing.T) {
	cases := []struct {
		t, s string
		want bool
	}{
		{"(a, e, g)", "(a, g)", true},
		{"(a, e, g)", "(a, e, g)", true},
		{"(a, e, g)", "(b)", false},
		{"(a, e, g)", "(a, b)", false},
		{"(b, f)", "(f)", true},
		{"(b)", "(b, f)", false},
	}
	for _, c := range cases {
		tp := MustParsePattern(c.t).LastItemset()
		sp := MustParsePattern(c.s).LastItemset()
		if got := tp.Contains(sp); got != c.want {
			t.Errorf("%v.Contains(%v) = %v, want %v", tp, sp, got, c.want)
		}
	}
}

func TestItemsetHas(t *testing.T) {
	is := NewItemset(2, 5, 9)
	for _, c := range []struct {
		x    Item
		want bool
	}{{2, true}, {5, true}, {9, true}, {1, false}, {3, false}, {10, false}} {
		if got := is.Has(c.x); got != c.want {
			t.Errorf("Has(%d) = %v, want %v", c.x, got, c.want)
		}
	}
}

// TestTransactionNumbering reproduces the §2 example: in <(a)(b)(c,d)(e)>
// the transaction numbers of the five items are 1, 2, 3, 3, 4.
func TestTransactionNumbering(t *testing.T) {
	p := MustParsePattern("(a)(b)(c,d)(e)")
	want := []int32{1, 2, 3, 3, 4}
	if p.Len() != 5 {
		t.Fatalf("Len = %d, want 5", p.Len())
	}
	for i, w := range want {
		if p.TNoAt(i) != w {
			t.Errorf("tno[%d] = %d, want %d", i, p.TNoAt(i), w)
		}
	}
	if p.NumItemsets() != 4 {
		t.Errorf("NumItemsets = %d, want 4", p.NumItemsets())
	}
}

// TestCompareIntroExamples checks the §1.2 ordering examples:
// <(a)(b)(h)> < <(a)(c)(f)> and <(a,b)(c)> < <(a)(b,c)>.
func TestCompareIntroExamples(t *testing.T) {
	cases := []struct {
		small, big string
	}{
		{"(a)(b)(h)", "(a)(c)(f)"},
		{"(a,b)(c)", "(a)(b,c)"},
	}
	for _, c := range cases {
		a, b := MustParsePattern(c.small), MustParsePattern(c.big)
		if Compare(a, b) >= 0 {
			t.Errorf("Compare(%s, %s) = %d, want < 0", a.Letters(), b.Letters(), Compare(a, b))
		}
		if Compare(b, a) <= 0 {
			t.Errorf("Compare(%s, %s) = %d, want > 0", b.Letters(), a.Letters(), Compare(b, a))
		}
	}
}

// TestCompareExample21 checks Example 2.1 under canonical itemsets.
// A = <(a,c,d)(d,b)> canonicalizes to <(a,c,d)(b,d)>; B = <(a,d,e)(a)>.
// The differential point of A and B is the second position (0-based 1)
// because c < d, giving A < B. The paper's comparison of A against
// C = <(a,c)(d,a)> depends on the literal (unsorted) writing of C; under
// canonical form C = <(a,c)(a,d)> and the differential point moves to the
// third position with item a < d, so C < A (see DESIGN.md).
func TestCompareExample21(t *testing.T) {
	A := MustParsePattern("(a,c,d)(d,b)")
	B := MustParsePattern("(a,d,e)(a)")
	C := MustParsePattern("(a,c)(d,a)")
	if pos, ok := DifferentialPoint(A, B); !ok || pos != 1 {
		t.Errorf("DifferentialPoint(A,B) = %d,%v, want 1,true", pos, ok)
	}
	if Compare(A, B) >= 0 {
		t.Errorf("want A < B")
	}
	if pos, ok := DifferentialPoint(A, C); !ok || pos != 2 {
		t.Errorf("DifferentialPoint(A,C) = %d,%v, want 2,true", pos, ok)
	}
	if Compare(C, A) >= 0 {
		t.Errorf("want C < A under canonical itemsets")
	}
}

func TestComparePrefixIsSmaller(t *testing.T) {
	a := MustParsePattern("(a)(b)")
	b := MustParsePattern("(a)(b)(c)")
	c := MustParsePattern("(a)(b,c)")
	if Compare(a, b) >= 0 || Compare(a, c) >= 0 {
		t.Errorf("strict pair-prefix must be smaller")
	}
}

func TestDifferentialPointEqual(t *testing.T) {
	a := MustParsePattern("(a,b)(c)")
	b := MustParsePattern("(b, a)(c)")
	if _, ok := DifferentialPoint(a, b); ok {
		t.Errorf("equal sequences must have no differential point")
	}
	if Compare(a, b) != 0 {
		t.Errorf("canonicalized equal sequences must compare equal")
	}
}

func TestPatternAccessors(t *testing.T) {
	p := MustParsePattern("(a,c)(b)(d,e)")
	if p.LastItem() != 5 {
		t.Errorf("LastItem = %d, want 5 (e)", p.LastItem())
	}
	if p.LastTNo() != 3 {
		t.Errorf("LastTNo = %d, want 3", p.LastTNo())
	}
	ls := p.LastItemset()
	if len(ls) != 2 || ls[0] != 4 || ls[1] != 5 {
		t.Errorf("LastItemset = %v, want [4 5]", ls)
	}
	pre := p.Prefix(3)
	if pre.String() != "<(1, 3)(2)>" {
		t.Errorf("Prefix(3) = %s", pre.String())
	}
	sets := p.Itemsets()
	if len(sets) != 3 || !sets[0].Has(1) || !sets[0].Has(3) || !sets[1].Has(2) {
		t.Errorf("Itemsets = %v", sets)
	}
}

func TestExtend(t *testing.T) {
	p := MustParsePattern("(a)(b)")
	pi := p.ExtendI(3)
	if pi.Letters() != "<(a)(b, c)>" {
		t.Errorf("ExtendI = %s", pi.Letters())
	}
	ps := p.ExtendS(1)
	if ps.Letters() != "<(a)(b)(a)>" {
		t.Errorf("ExtendS = %s", ps.Letters())
	}
	// Extending must not mutate the original.
	if p.Letters() != "<(a)(b)>" {
		t.Errorf("original mutated: %s", p.Letters())
	}
	// Extend dispatches by tno.
	if got := p.Extend(3, 2).Letters(); got != "<(a)(b, c)>" {
		t.Errorf("Extend i-form = %s", got)
	}
	if got := p.Extend(1, 3).Letters(); got != "<(a)(b)(a)>" {
		t.Errorf("Extend s-form = %s", got)
	}
}

func TestExtendIPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ExtendI with non-increasing item must panic")
		}
	}()
	MustParsePattern("(a)(b)").ExtendI(2)
}

func TestPatternFromPairsValidation(t *testing.T) {
	bad := []struct {
		items []Item
		tnos  []int32
	}{
		{[]Item{1}, []int32{2}},       // must start at 1
		{[]Item{1, 1}, []int32{1, 1}}, // duplicate within transaction
		{[]Item{2, 1}, []int32{1, 1}}, // descending within transaction
		{[]Item{1, 2}, []int32{1, 3}}, // tno jump
		{[]Item{0}, []int32{1}},       // invalid item
		{[]Item{1, 2}, []int32{1}},    // length mismatch
		{[]Item{1, 2}, []int32{2, 1}}, // first tno wrong
	}
	for i, c := range bad {
		if _, err := PatternFromPairs(c.items, c.tnos); err == nil {
			t.Errorf("case %d: expected error for items=%v tnos=%v", i, c.items, c.tnos)
		}
	}
	p, err := PatternFromPairs([]Item{1, 3, 2}, []int32{1, 1, 2})
	if err != nil {
		t.Fatalf("valid pattern rejected: %v", err)
	}
	if p.Letters() != "<(a, c)(b)>" {
		t.Errorf("round trip = %s", p.Letters())
	}
}

// TestContainsTable1 uses the paper's Table 1 database: <(a, g)(b)> appears
// in customer sequences 1 and 4 only.
func TestContainsTable1(t *testing.T) {
	db := table1(t)
	p := MustParsePattern("(a,g)(b)")
	want := map[int]bool{1: true, 2: false, 3: false, 4: true}
	for _, cs := range db {
		if got := cs.Contains(p); got != want[cs.CID] {
			t.Errorf("CID %d Contains(%s) = %v, want %v", cs.CID, p.Letters(), got, want[cs.CID])
		}
	}
	// The SPADE example from §1.1: <(a, g)(h)(f)> appears in customer
	// sequences 1 and 4.
	q := MustParsePattern("(a,g)(h)(f)")
	wantQ := map[int]bool{1: true, 2: false, 3: false, 4: true}
	for _, cs := range db {
		if got := cs.Contains(q); got != wantQ[cs.CID] {
			t.Errorf("CID %d Contains(%s) = %v, want %v", cs.CID, q.Letters(), got, wantQ[cs.CID])
		}
	}
}

func table1(t *testing.T) []*CustomerSeq {
	t.Helper()
	return []*CustomerSeq{
		MustParseCustomerSeq(1, "(a, e, g)(b)(h)(f)(c)(b, f)"),
		MustParseCustomerSeq(2, "(b)(d, f)(e)"),
		MustParseCustomerSeq(3, "(b, f, g)"),
		MustParseCustomerSeq(4, "(f)(a, g)(b, f, h)(b, f)"),
	}
}

// TestLeftmostMatchExample33 reproduces Example 3.3: matching <(a)(a, g)>
// on CID 1 = (a)(a, g, h)(c) yields matching point 3 (1-based), i.e.
// flattened position 2, in transaction index 1.
func TestLeftmostMatchExample33(t *testing.T) {
	cs := MustParseCustomerSeq(1, "(a)(a, g, h)(c)")
	trans, pos, ok := cs.LeftmostMatch(MustParsePattern("(a)(a, g)"))
	if !ok || trans != 1 || pos != 2 {
		t.Fatalf("LeftmostMatch = trans %d pos %d ok %v, want 1 2 true", trans, pos, ok)
	}
	// <(a)(a, e)> has no match on CID 1.
	if _, _, ok := cs.LeftmostMatch(MustParsePattern("(a)(a, e)")); ok {
		t.Fatal("unexpected match of <(a)(a, e)>")
	}
}

// TestLeftmostMatchExample34 reproduces Example 3.4: matching <(a)(a, e)>
// on CID 3 = (a, f, g)(a, e, g, h)(c, g, h) yields matching point 5
// (1-based), i.e. flattened position 4.
func TestLeftmostMatchExample34(t *testing.T) {
	cs := MustParseCustomerSeq(3, "(a, f, g)(a, e, g, h)(c, g, h)")
	trans, pos, ok := cs.LeftmostMatch(MustParsePattern("(a)(a, e)"))
	if !ok || trans != 1 || pos != 4 {
		t.Fatalf("LeftmostMatch = trans %d pos %d ok %v, want 1 4 true", trans, pos, ok)
	}
}

// TestNewCustomerSeqTable checks the flattening constructor against a
// per-transaction NewItemset reference: canonical transactions pass
// through, others are sorted and deduplicated, empty ones are dropped,
// transaction numbers and starts follow the kept transactions, and the
// result does not alias its input.
func TestNewCustomerSeqTable(t *testing.T) {
	cases := []struct {
		name   string
		in     []Itemset
		mutate bool
	}{
		{"canonical", []Itemset{{1, 3}, {2}, {1, 2, 5}}, false},
		{"unsorted", []Itemset{{3, 1}, {5, 2, 4}}, false},
		{"duplicates", []Itemset{{2, 2, 1}, {4, 4}, {1, 1, 1}}, false},
		{"empty transactions", []Itemset{{}, {2}, nil, {3, 1}, {}}, false},
		{"all empty", []Itemset{{}, nil, {}}, false},
		{"no transactions", nil, false},
		{"input mutated after the call", []Itemset{{1, 2}, {4, 3}}, true},
	}
	for _, c := range cases {
		var want []Itemset
		for _, tr := range c.in {
			if is := NewItemset(tr...); len(is) > 0 {
				want = append(want, is)
			}
		}
		cs := NewCustomerSeq(7, c.in...)
		if c.mutate {
			for _, tr := range c.in {
				for i := range tr {
					tr[i] = 9
				}
			}
		}
		if cs.CID != 7 || cs.NTrans() != len(want) {
			t.Fatalf("%s: CID %d, %d transactions, want 7, %d", c.name, cs.CID, cs.NTrans(), len(want))
		}
		pos := 0
		for tn, is := range want {
			if got := cs.Transaction(tn); !slices.Equal(got, is) {
				t.Fatalf("%s: transaction %d = %v, want %v", c.name, tn, got, is)
			}
			if int(cs.TransStart(tn)) != pos {
				t.Fatalf("%s: TransStart(%d) = %d, want %d", c.name, tn, cs.TransStart(tn), pos)
			}
			for range is {
				if cs.TNoAt(pos) != int32(tn+1) {
					t.Fatalf("%s: TNoAt(%d) = %d, want %d", c.name, pos, cs.TNoAt(pos), tn+1)
				}
				pos++
			}
		}
		if cs.Len() != pos || int(cs.TransStart(cs.NTrans())) != pos {
			t.Fatalf("%s: Len %d, end %d, want %d", c.name, cs.Len(), cs.TransStart(cs.NTrans()), pos)
		}
	}
}

func TestSuffix(t *testing.T) {
	cs := MustParseCustomerSeq(4, "(f)(a, g)(b, f, h)(b, f)")
	s := cs.Suffix(1, 1) // from transaction (a,g), keep all items
	if s.Pattern().Letters() != "<(a, g)(b, f, h)(b, f)>" {
		t.Errorf("Suffix(1,1) = %s", s.Pattern().Letters())
	}
	s2 := cs.Suffix(1, 7) // filter first transaction to items >= g
	if s2.Pattern().Letters() != "<(g)(b, f, h)(b, f)>" {
		t.Errorf("Suffix(1,7) = %s", s2.Pattern().Letters())
	}
	// Filtering may empty the first transaction entirely; it is dropped and
	// later transactions are kept whole.
	s3 := cs.Suffix(0, 7)
	if s3.Pattern().Letters() != "<(a, g)(b, f, h)(b, f)>" {
		t.Errorf("Suffix(0,7) = %s", s3.Pattern().Letters())
	}
	if s3.NTrans() != 3 {
		t.Errorf("Suffix(0,7) NTrans = %d, want 3", s3.NTrans())
	}
}

func TestMinItemAndNextMinItem(t *testing.T) {
	cs := MustParseCustomerSeq(2, "(b)(a)(f)(a, c, e, g)")
	min, tr, ok := cs.MinItem()
	if !ok || min != 1 || tr != 1 {
		t.Errorf("MinItem = %d,%d,%v want a,1,true", min, tr, ok)
	}
	// Next distinct minimum after a is b at transaction 0.
	nxt, tr2, ok := cs.NextMinItem(1)
	if !ok || nxt != 2 || tr2 != 0 {
		t.Errorf("NextMinItem(a) = %d,%d,%v want b,0,true", nxt, tr2, ok)
	}
	// After g there is nothing.
	if _, _, ok := cs.NextMinItem(7); ok {
		t.Errorf("NextMinItem(g) should fail")
	}
}

func TestDistinctItems(t *testing.T) {
	cs := MustParseCustomerSeq(1, "(b)(a)(b, c)")
	seen := make([]bool, 10)
	got := cs.DistinctItems(nil, seen)
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("DistinctItems = %v", got)
	}
	for i, s := range seen {
		if s {
			t.Errorf("seen[%d] not cleared", i)
		}
	}
}

func TestParseRoundTrip(t *testing.T) {
	cases := []string{
		"<(a, e, g)(b)(h)(f)(c)(b, f)>",
		"<(a)>",
		"<(a, b, c)>",
	}
	for _, c := range cases {
		p := MustParsePattern(c)
		if p.Letters() != c {
			t.Errorf("round trip %q = %q", c, p.Letters())
		}
	}
	// Numeric parsing.
	p := MustParsePattern("(1 5)(2)")
	if p.String() != "<(1, 5)(2)>" {
		t.Errorf("numeric parse = %s", p.String())
	}
	if _, err := ParsePattern("(a"); err == nil {
		t.Errorf("unbalanced paren should error")
	}
	if _, err := ParsePattern("a)"); err == nil {
		t.Errorf("missing paren should error")
	}
	if _, err := ParsePattern("()"); err == nil {
		t.Errorf("empty itemset should error")
	}
	if _, err := ParsePattern("(0)"); err == nil {
		t.Errorf("item 0 should error")
	}
}

// randomPattern builds a random canonical pattern with at most maxLen items
// over an alphabet of n items.
func randomPattern(r *rand.Rand, n, maxLen int) Pattern {
	k := 1 + r.Intn(maxLen)
	var sets []Itemset
	remaining := k
	for remaining > 0 {
		sz := 1 + r.Intn(3)
		if sz > remaining {
			sz = remaining
		}
		var is Itemset
		for i := 0; i < sz; i++ {
			is = append(is, Item(1+r.Intn(n)))
		}
		c := NewItemset(is...)
		sets = append(sets, c)
		remaining -= len(c)
	}
	return NewPattern(sets...)
}

// TestCompareIsTotalOrder checks reflexivity, antisymmetry and transitivity
// of the comparative order on random patterns.
func TestCompareIsTotalOrder(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 2000; i++ {
		a := randomPattern(r, 6, 6)
		b := randomPattern(r, 6, 6)
		c := randomPattern(r, 6, 6)
		if Compare(a, a) != 0 {
			t.Fatalf("Compare(%v, %v) != 0", a, a)
		}
		if Compare(a, b) != -Compare(b, a) {
			t.Fatalf("antisymmetry violated for %v, %v", a, b)
		}
		if Compare(a, b) <= 0 && Compare(b, c) <= 0 && Compare(a, c) > 0 {
			t.Fatalf("transitivity violated for %v, %v, %v", a, b, c)
		}
		if (Compare(a, b) == 0) != (a.Key() == b.Key()) {
			t.Fatalf("Key inconsistent with Compare for %v, %v", a, b)
		}
	}
}

// TestKeyUniqueness: distinct sequences must yield distinct keys even when
// item boundaries could be confused.
func TestKeyUniqueness(t *testing.T) {
	a := MustParsePattern("(a, b)(c)")
	b := MustParsePattern("(a)(b, c)")
	c := MustParsePattern("(a, b, c)")
	d := MustParsePattern("(a)(b)(c)")
	keys := map[string]string{}
	for _, p := range []Pattern{a, b, c, d} {
		if prev, dup := keys[p.Key()]; dup {
			t.Fatalf("key collision between %s and %s", prev, p.Letters())
		}
		keys[p.Key()] = p.Letters()
	}
}

// TestCompareMatchesSortedKeys: sorting by Compare must be a deterministic
// total order (quick-check style over random slices).
func TestCompareSortStability(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ps := make([]Pattern, 20)
		for i := range ps {
			ps[i] = randomPattern(r, 5, 5)
		}
		sort.Slice(ps, func(i, j int) bool { return Compare(ps[i], ps[j]) < 0 })
		for i := 1; i < len(ps); i++ {
			if Compare(ps[i-1], ps[i]) > 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestContainsAgainstNaive cross-checks LeftmostMatch-based containment
// against a naive recursive containment check on random data.
func TestContainsAgainstNaive(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 3000; i++ {
		cs := randomCustomer(r, 5, 6, 3)
		p := randomPattern(r, 5, 4)
		got := cs.Contains(p)
		want := naiveContains(cs.Itemsets(), p.Itemsets())
		if got != want {
			t.Fatalf("Contains(%s, %s) = %v, want %v", cs.Pattern().Letters(), p.Letters(), got, want)
		}
	}
}

func randomCustomer(r *rand.Rand, n, maxTrans, maxPerTrans int) *CustomerSeq {
	nt := 1 + r.Intn(maxTrans)
	sets := make([]Itemset, nt)
	for i := range sets {
		sz := 1 + r.Intn(maxPerTrans)
		var is Itemset
		for j := 0; j < sz; j++ {
			is = append(is, Item(1+r.Intn(n)))
		}
		sets[i] = is
	}
	return NewCustomerSeq(0, sets...)
}

func naiveContains(db []Itemset, pat []Itemset) bool {
	if len(pat) == 0 {
		return true
	}
	if len(db) == 0 {
		return false
	}
	if db[0].Contains(pat[0]) && naiveContains(db[1:], pat[1:]) {
		return true
	}
	return naiveContains(db[1:], pat)
}

// TestLeftmostMatchIsLeftmost checks the greedy walk against exhaustive
// search on random data: the final transaction is the minimum over all
// embeddings, the matching point is p's last item inside it, and it is the
// first transaction after the earliest end of p's other itemsets that
// contains p's last itemset — the property that lets the kmin extension
// scans start at the final transaction.
func TestLeftmostMatchIsLeftmost(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for i := 0; i < 2000; i++ {
		cs := randomCustomer(r, 4, 5, 3)
		p := randomPattern(r, 4, 4)
		trans, pos, ok := cs.LeftmostMatch(p)
		minTrans, found := exhaustiveMinLastTrans(cs, p)
		if ok != found {
			t.Fatalf("match disagreement for %s in %s", p.Letters(), cs.Pattern().Letters())
		}
		if !ok {
			continue
		}
		if trans != minTrans {
			t.Fatalf("LeftmostMatch trans %d, exhaustive min %d for %s in %s",
				trans, minTrans, p.Letters(), cs.Pattern().Letters())
		}
		if cs.TNoAt(pos) != int32(trans+1) || cs.ItemAt(pos) != p.LastItem() {
			t.Fatalf("matching point %d of %s in %s is not its last item in transaction %d",
				pos, p.Letters(), cs.Pattern().Letters(), trans)
		}
		sets := p.Itemsets()
		prefixEnd, _ := exhaustiveMinLastTrans(cs, NewPattern(sets[:len(sets)-1]...))
		for tt := prefixEnd + 1; tt < trans; tt++ {
			if cs.Transaction(tt).Contains(p.LastItemset()) {
				t.Fatalf("transaction %d of %s holds the last itemset of %s before the match at %d",
					tt, cs.Pattern().Letters(), p.Letters(), trans)
			}
		}
	}
}

func exhaustiveMinLastTrans(cs *CustomerSeq, p Pattern) (int, bool) {
	sets := p.Itemsets()
	best := -1
	var rec func(si, ti int, last int)
	rec = func(si, ti, last int) {
		if si == len(sets) {
			if best < 0 || last < best {
				best = last
			}
			return
		}
		for tt := ti; tt < cs.NTrans(); tt++ {
			if cs.Transaction(tt).Contains(sets[si]) {
				rec(si+1, tt+1, tt)
			}
		}
	}
	rec(0, 0, -1)
	return best, best >= 0
}
