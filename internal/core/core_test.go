package core

import (
	"math/rand"
	"testing"

	"github.com/disc-mining/disc/internal/bruteforce"
	"github.com/disc-mining/disc/internal/mining"
	"github.com/disc-mining/disc/internal/seq"
	"github.com/disc-mining/disc/internal/testutil"
)

func allVariants() []mining.Miner {
	return []mining.Miner{
		New(),
		&Miner{Opts: Options{BiLevel: false, Levels: 2}},
		&Miner{Opts: Options{BiLevel: true, Levels: 1}},
		&Miner{Opts: Options{BiLevel: true, Levels: 3}},
		&Miner{Opts: Options{BiLevel: true, Levels: -1}}, // pure DISC, no partitioning
		&Miner{}, // zero options: no partitioning, no bi-level (explicit zero is honoured)
		&Miner{Opts: Options{BiLevel: true, Levels: 2, Workers: 4}},  // parallel scheduler
		&Miner{Opts: Options{BiLevel: false, Levels: 3, Workers: 3}}, // parallel, deeper static split
		NewDynamic(),
		&Dynamic{Opts: Options{BiLevel: true, Gamma: 0.05}},
		&Dynamic{Opts: Options{BiLevel: false, Gamma: 0.95}},
		&Dynamic{Opts: Options{BiLevel: true, Gamma: 0.5, Workers: 4}}, // parallel dynamic
	}
}

// TestTable1Golden mines the paper's Table 1 with δ=2.
func TestTable1Golden(t *testing.T) {
	db := testutil.Table1()
	ref, err := bruteforce.Exhaustive{}.Mine(db, 2)
	if err != nil {
		t.Fatal(err)
	}
	testutil.CheckAgainst(t, ref, allVariants(), db, 2)
}

// TestTable6Golden mines the §3.1 running example with δ=3 and spot-checks
// the patterns the paper names: <(a, e)>, <(a)(g, h)>, the frequent
// 4-sequence <(a)(a, e, g)> of Example 3.5 and its unique frequent
// 5-extension <(a)(a, e, g, h)>.
func TestTable6Golden(t *testing.T) {
	db := testutil.Table6()
	ref, err := bruteforce.Exhaustive{}.Mine(db, 3)
	if err != nil {
		t.Fatal(err)
	}
	testutil.CheckAgainst(t, ref, allVariants(), db, 3)

	m := New()
	res, err := m.Mine(db, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []string{"(a, e)", "(a)(g, h)", "(a)(a, e, g)", "(a)(a, e, g, h)"} {
		if _, ok := res.Support(seq.MustParsePattern(s)); !ok {
			t.Errorf("%s should be frequent", s)
		}
	}
	// Example 3.5: <(a)(a, e, g, h)> is the only frequent 5-sequence with
	// 4-prefix <(a)(a, e, g)>.
	for _, pc := range res.Sorted() {
		if pc.Pattern.Len() == 5 && pc.Pattern.Prefix(4).Equal(seq.MustParsePattern("(a)(a, e, g)")) {
			if !pc.Pattern.Equal(seq.MustParsePattern("(a)(a, e, g, h)")) {
				t.Errorf("unexpected frequent 5-sequence %s", pc.Pattern.Letters())
			}
		}
	}
}

// TestRandomAgainstOracle is the central differential test: every DISC
// variant must equal the exhaustive oracle on random databases.
func TestRandomAgainstOracle(t *testing.T) {
	r := rand.New(rand.NewSource(61))
	for i := 0; i < 80; i++ {
		db := testutil.RandomDB(r, 6+r.Intn(8), 5, 4, 3)
		minSup := 1 + r.Intn(4)
		ref, err := bruteforce.Exhaustive{}.Mine(db, minSup)
		if err != nil {
			t.Fatal(err)
		}
		testutil.CheckAgainst(t, ref, allVariants(), db, minSup)
	}
}

// TestSkewedAgainstLevelWise stresses deeper recursion with larger skewed
// databases.
func TestSkewedAgainstLevelWise(t *testing.T) {
	r := rand.New(rand.NewSource(62))
	for i := 0; i < 10; i++ {
		db := testutil.SkewedRandomDB(r, 70, 12, 6, 4)
		minSup := 3 + r.Intn(6)
		ref, err := bruteforce.LevelWise{}.Mine(db, minSup)
		if err != nil {
			t.Fatal(err)
		}
		testutil.CheckAgainst(t, ref, allVariants(), db, minSup)
	}
}

// TestLongIdenticalSequences forces very long frequent sequences through
// the DISC loop (every k up to the sequence length is frequent).
func TestLongIdenticalSequences(t *testing.T) {
	db := mining.Database{
		seq.MustParseCustomerSeq(1, "(a, b)(c)(a, b)(c)(a, b)(c)"),
		seq.MustParseCustomerSeq(2, "(a, b)(c)(a, b)(c)(a, b)(c)"),
	}
	ref, err := bruteforce.Exhaustive{}.Mine(db, 2)
	if err != nil {
		t.Fatal(err)
	}
	testutil.CheckAgainst(t, ref, allVariants(), db, 2)
	res, _ := New().Mine(db, 2)
	if sup, ok := res.Support(seq.MustParsePattern("(a, b)(c)(a, b)(c)(a, b)(c)")); !ok || sup != 2 {
		t.Errorf("full-length pattern support = %d,%v", sup, ok)
	}
}

// TestMinSupOne exercises the δ=1 edge: α_δ is always α₁, so every DISC
// round is a frequent hit.
func TestMinSupOne(t *testing.T) {
	db := mining.Database{seq.MustParseCustomerSeq(1, "(b)(a, c)(b)")}
	ref, err := bruteforce.Exhaustive{}.Mine(db, 1)
	if err != nil {
		t.Fatal(err)
	}
	testutil.CheckAgainst(t, ref, allVariants(), db, 1)
}

func TestEmptyAndTinyDatabases(t *testing.T) {
	for _, m := range allVariants() {
		res, err := m.Mine(nil, 1)
		if err != nil || res.Len() != 0 {
			t.Errorf("%s on empty db: %v, %d", m.Name(), err, res.Len())
		}
		res, err = m.Mine(mining.Database{seq.MustParseCustomerSeq(1, "(a)")}, 2)
		if err != nil || res.Len() != 0 {
			t.Errorf("%s single customer, δ=2: %v, %d", m.Name(), err, res.Len())
		}
	}
}

// TestStatsAreMeaningful checks the instrumentation that the NRR analysis
// (§4.2) builds on: DISC rounds happen, skips happen on data with
// non-frequent minimums, partitions are counted per level.
func TestStatsAreMeaningful(t *testing.T) {
	r := rand.New(rand.NewSource(63))
	db := testutil.SkewedRandomDB(r, 60, 10, 6, 4)
	m := New()
	if _, err := m.Mine(db, 4); err != nil {
		t.Fatal(err)
	}
	st := m.LastStats()
	if st.Rounds == 0 || st.KMSCalls == 0 {
		t.Errorf("no DISC activity recorded: %+v", st)
	}
	if st.FrequentHits+st.Skips != st.Rounds {
		t.Errorf("rounds %d != hits %d + skips %d", st.Rounds, st.FrequentHits, st.Skips)
	}
	if len(st.PartitionsByLevel) == 0 || st.PartitionsByLevel[0] != 1 {
		t.Errorf("PartitionsByLevel = %v", st.PartitionsByLevel)
	}
	if len(st.NRRByLevel) == 0 || st.NRRByLevel[0] <= 0 || st.NRRByLevel[0] >= 1 {
		t.Errorf("root NRR = %v, expected in (0,1)", st.NRRByLevel)
	}
}

// TestSkipsOccur verifies Lemma 2.2 actually triggers: a database designed
// so that customers disagree on their k-minimums must produce skip events.
func TestSkipsOccur(t *testing.T) {
	r := rand.New(rand.NewSource(64))
	db := testutil.RandomDB(r, 30, 8, 5, 3)
	m := &Miner{Opts: Options{BiLevel: true, Levels: 1}}
	if _, err := m.Mine(db, 3); err != nil {
		t.Fatal(err)
	}
	if m.LastStats().Skips == 0 {
		t.Errorf("expected at least one Lemma-2.2 skip, stats %+v", m.LastStats())
	}
}

// TestDynamicMatchesStaticOnPaperData: the two algorithms must agree
// pattern-for-pattern regardless of γ.
func TestDynamicMatchesStatic(t *testing.T) {
	r := rand.New(rand.NewSource(65))
	for _, gamma := range []float64{0.01, 0.3, 0.7, 0.99} {
		db := testutil.SkewedRandomDB(r, 50, 10, 5, 3)
		sRes, err := New().Mine(db, 3)
		if err != nil {
			t.Fatal(err)
		}
		d := &Dynamic{Opts: Options{BiLevel: true, Gamma: gamma}}
		dRes, err := d.Mine(db, 3)
		if err != nil {
			t.Fatal(err)
		}
		if diff := sRes.Diff(dRes); diff != "" {
			t.Fatalf("gamma=%v:\n%s", gamma, diff)
		}
	}
}

// TestReduceMembersTable7 reproduces Table 7: the <(a)>-partition of Table
// 6 with reduced customer sequences (δ=3). CID 5 drops out (too short).
func TestReduceMembersTable7(t *testing.T) {
	db := testutil.Table6()
	e := &engine{minSup: 3, maxItem: db.MaxItem(),
		opts: DefaultOptions(), policy: func(int, float64) bool { return true }}
	key := seq.MustParsePattern("(a)")
	members := partitionMembers(key, db[:7]) // CIDs 1-7 form the <(a)>-partition
	list2, _ := e.frequentExtensions(key, members, 1)
	reduced, err := e.reduceMembers(1, members, list2)
	if err != nil {
		t.Fatal(err)
	}
	want := map[int]string{
		1: "<(a)(a, g, h)(c)>",
		2: "<(b)(a)(a, c, e, g)>",
		3: "<(a, f, g)(a, e, g, h)(c, g, h)>",
		4: "<(f)(a, f)(a, c, e, g, h)>",
		6: "<(a, f)(a, e, g, h)>",
		7: "<(a, g)(a, e, g)(g, h)>",
	}
	if len(reduced) != len(want) {
		var got []string
		for _, mb := range reduced {
			got = append(got, mb.cs.Pattern().Letters())
		}
		t.Fatalf("reduced partition = %v, want %d members", got, len(want))
	}
	for _, mb := range reduced {
		if mb.cs.Pattern().Letters() != want[mb.cs.CID] {
			t.Errorf("CID %d reduced = %s, want %s", mb.cs.CID, mb.cs.Pattern().Letters(), want[mb.cs.CID])
		}
		// The reduced member carries <(a)>'s matching point in the
		// reduced sequence.
		if _, at, _ := mb.cs.LeftmostMatch(key); mb.at != at {
			t.Errorf("CID %d reduced member at %d, leftmost matching point %d", mb.cs.CID, mb.at, at)
		}
	}
}

// TestPartitionAssignmentExample31 checks the first-level partition
// assignment of Example 3.1 (Table 6, δ=3) through minFreqExtension. Two
// deliberate differences from the paper's bookkeeping are also pinned
// down: CID 9's minimum item d is not frequent, so it is assigned directly
// to its minimal *frequent* item f (the paper parks it in the
// <(d)>-partition, which is later skipped and reassigned — same effect);
// and after the <(a)>-partition is processed, CID 5 = (a, g) is reassigned
// to <(g)> rather than removed (the paper drops it because the minimum
// point sits at the end; keeping it preserves the partition-size =
// support invariant and is harmless since it cannot host any 2-sequence).
func TestPartitionAssignmentExample31(t *testing.T) {
	db := testutil.Table6()
	// Frequent items at δ=3: everything but d (support 2).
	var list []seq.Pattern
	for _, x := range []seq.Item{1, 2, 3, 5, 6, 7, 8} {
		list = append(list, seq.NewPattern(seq.NewItemset(x)))
	}
	var table indexTable
	tab := table.fill(8, 0, list)
	wantInitial := map[int]seq.Item{
		1: 1, 2: 1, 3: 1, 4: 1, 5: 1, 6: 1, 7: 1, // <(a)>-partition
		8: 2, 10: 2, // <(b)>-partition
		9:  6, // paper: <(d)>-partition; d is non-frequent, so directly f
		11: 5, // <(e)>-partition
	}
	for _, cs := range db {
		x, no, _, ok := minFreqExtension(cs, seq.Pattern{}, -1, tab, 0, 0, false)
		if !ok || no != 1 || x != wantInitial[cs.CID] {
			t.Errorf("CID %d initial partition = item %d (%v), want %d", cs.CID, x, ok, wantInitial[cs.CID])
		}
	}
	// Reassignment after processing the <(a)>-partition (bound item a,
	// strict): the rightmost column of Table 6.
	wantNext := map[int]seq.Item{
		1: 3, // <(c)>-partition
		2: 2, // <(b)>-partition
		3: 3, 4: 3,
		5: 7, // paper: removed; here <(g)> (see comment above)
		6: 5, // <(e)>-partition
		7: 2,
	}
	for _, cs := range db[:7] {
		x, _, _, ok := minFreqExtension(cs, seq.Pattern{}, -1, tab, 1, 1, true)
		if !ok || x != wantNext[cs.CID] {
			t.Errorf("CID %d next partition = item %d (%v), want %d", cs.CID, x, ok, wantNext[cs.CID])
		}
	}
	// End-to-end: exactly the 7 frequent first-level partitions are
	// processed.
	m := New()
	if _, err := m.Mine(db, 3); err != nil {
		t.Fatal(err)
	}
	st := m.LastStats()
	if len(st.PartitionsByLevel) < 2 || st.PartitionsByLevel[0] != 1 || st.PartitionsByLevel[1] != 7 {
		t.Errorf("PartitionsByLevel = %v, want [1 7 ...]", st.PartitionsByLevel)
	}
}

// TestMinFreqExtensionPosition: minFreqExtension reports, with the
// minimal frequent extension it picks, that extension's leftmost matching
// point in the customer — the position the split files the customer under
// — with and without a bound, including an i-extension available only at
// a later match of the key.
func TestMinFreqExtensionPosition(t *testing.T) {
	cases := []struct {
		name, cs, key string
		list          []string // key's frequent extensions, ascending
		bound         string   // "" for none
		strict        bool
		want          string // "" when no extension qualifies
	}{
		{"root", "(b)(a, c)(a)", "", []string{"(a)", "(b)", "(c)"}, "", false, "(a)"},
		{"root above a", "(b)(a, c)(a)", "", []string{"(a)", "(b)", "(c)"}, "(a)", true, "(b)"},
		{"root from b", "(b)(a, c)(a)", "", []string{"(a)", "(b)", "(c)"}, "(b)", false, "(b)"},
		{"root infrequent minimum", "(d)(b, c)", "", []string{"(a)", "(b)", "(c)"}, "", false, "(b)"},
		{"s-form", "(a, c)(b)(a, c)", "(a)", []string{"(a, c)", "(a)(b)", "(a)(c)"}, "", false, "(a)(b)"},
		{"i-form above bound", "(a, c)(b)(a, c)", "(a)", []string{"(a, c)", "(a)(b)", "(a)(c)"}, "(a)(b)", true, "(a, c)"},
		{"s-form past i-form", "(a, c)(b)(a, c)", "(a)", []string{"(a, c)", "(a)(b)", "(a)(c)"}, "(a, c)", true, "(a)(c)"},
		{"i-form at a later match", "(a)(b)(a, c)", "(a)", []string{"(a, c)"}, "", false, "(a, c)"},
		{"deeper key", "(a)(b)(a, b)(c)(b, c)", "(a)(b)", []string{"(a)(b, c)", "(a)(b)(c)"}, "", false, "(a)(b, c)"},
		{"deeper key above bound", "(a)(b)(a, b)(c)(b, c)", "(a)(b)", []string{"(a)(b, c)", "(a)(b)(c)"}, "(a)(b, c)", true, "(a)(b)(c)"},
		{"nothing above bound", "(a)(b)(a, b)(c)(b, c)", "(a)(b)", []string{"(a)(b, c)", "(a)(b)(c)"}, "(a)(b)(c)", true, ""},
	}
	for _, c := range cases {
		cs := seq.MustParseCustomerSeq(1, c.cs)
		var key seq.Pattern
		if c.key != "" {
			key = seq.MustParsePattern(c.key)
		}
		var list []seq.Pattern
		for _, s := range c.list {
			list = append(list, seq.MustParsePattern(s))
		}
		var table indexTable
		tab := table.fill(8, key.LastTNoOrZero(), list)
		var bx seq.Item
		var bno int32
		if c.bound != "" {
			b := seq.MustParsePattern(c.bound)
			bx, bno = b.LastItem(), b.LastTNo()
		}
		_, at, _ := cs.LeftmostMatch(key)
		x, no, pos, ok := minFreqExtension(cs, key, at, tab, bx, bno, c.strict)
		if c.want == "" {
			if ok {
				t.Errorf("%s: got %s, want none", c.name, key.Extend(x, no).Letters())
			}
			continue
		}
		want := seq.MustParsePattern(c.want)
		if !ok || !key.Extend(x, no).Equal(want) {
			t.Errorf("%s: got (%d, %d, %v), want %s", c.name, x, no, ok, want.Letters())
			continue
		}
		if _, wantPos, _ := cs.LeftmostMatch(want); pos != wantPos {
			t.Errorf("%s: %s filed at %d, leftmost matching point %d", c.name, want.Letters(), pos, wantPos)
		}
	}
}
