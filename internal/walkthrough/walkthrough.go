// Package walkthrough renders the worked examples of §1–§3 of Chiu, Wu &
// Chen (ICDE 2004) — Tables 1-4 and 8-10, the §1.1 SPADE ID-list merge,
// the §2 ordering examples and Examples 3.3-3.5 — with every value
// computed by this repository's implementations. It is the human-readable
// companion to the golden unit tests and is printed by cmd/paperwalk.
package walkthrough

import (
	"fmt"
	"io"
	"sort"

	"github.com/disc-mining/disc/internal/bruteforce"
	"github.com/disc-mining/disc/internal/kmin"
	"github.com/disc-mining/disc/internal/mining"
	"github.com/disc-mining/disc/internal/seq"
)

// Run writes the whole walkthrough to w.
func Run(w io.Writer) error {
	db := table1()
	sections := []func(io.Writer, mining.Database) error{
		sectionTable1,
		sectionOrdering,
		sectionKMinimum,
		sectionSortedDatabases,
		sectionPartitionDiscovery,
	}
	for _, s := range sections {
		if err := s(w, db); err != nil {
			return err
		}
	}
	return nil
}

func table1() mining.Database {
	return mining.Database{
		seq.MustParseCustomerSeq(1, "(a, e, g)(b)(h)(f)(c)(b, f)"),
		seq.MustParseCustomerSeq(2, "(b)(d, f)(e)"),
		seq.MustParseCustomerSeq(3, "(b, f, g)"),
		seq.MustParseCustomerSeq(4, "(f)(a, g)(b, f, h)(b, f)"),
	}
}

func sectionTable1(w io.Writer, db mining.Database) error {
	fmt.Fprintln(w, "== Table 1: the example database ==")
	for _, cs := range db {
		fmt.Fprintf(w, "  CID %d  %s\n", cs.CID, cs.Pattern().Letters())
	}

	res, err := bruteforce.Exhaustive{}.Mine(db, 2)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\n§1.1 frequent 1-sequences at δ=2 (paper: a, b, e, f, g, h):\n  ")
	for _, pc := range res.Sorted() {
		if pc.Pattern.Len() == 1 {
			fmt.Fprintf(w, "%s:%d ", pc.Pattern.Letters(), pc.Support)
		}
	}
	fmt.Fprintln(w)

	// The SPADE ID-list example.
	fmt.Fprintf(w, "\n§1.1 ID-list of <(a, g)(b)> (paper: (1,2), (1,6), (4,3), (4,4)):\n  ")
	for _, e := range idList(db, seq.MustParsePattern("(a, g)(b)")) {
		fmt.Fprintf(w, "(%d,%d) ", e[0], e[1])
	}
	fmt.Fprintln(w)
	sup, _ := res.Support(seq.MustParsePattern("(a, g)(h)(f)"))
	fmt.Fprintf(w, "§1.1 temporal join result <(a, g)(h)(f)> support (paper: 2): %d\n", sup)

	// Table 2: the projected database of <(a)>.
	fmt.Fprintln(w, "\n== Table 2: the projected database of <(a)> ==")
	for _, cs := range db {
		for t := 0; t < cs.NTrans(); t++ {
			if cs.Transaction(t).Has(1) {
				fmt.Fprintf(w, "  CID %d  %s\n", cs.CID, cs.Suffix(t, 1).Pattern().Letters())
				break
			}
		}
	}
	fmt.Fprintln(w)
	return nil
}

// idList lists (cid, 1-based transaction) ends of p across the database.
func idList(db mining.Database, p seq.Pattern) [][2]int {
	var out [][2]int
	sets := p.Itemsets()
	for _, cs := range db {
		for e := 0; e < cs.NTrans(); e++ {
			if !cs.Transaction(e).Contains(sets[len(sets)-1]) {
				continue
			}
			// The prefix must match before transaction e.
			t := 0
			ok := true
			for _, s := range sets[:len(sets)-1] {
				for ; t < e; t++ {
					if cs.Transaction(t).Contains(s) {
						break
					}
				}
				if t >= e {
					ok = false
					break
				}
				t++
			}
			if ok {
				out = append(out, [2]int{cs.CID, e + 1})
			}
		}
	}
	return out
}

func sectionOrdering(w io.Writer, _ mining.Database) error {
	fmt.Fprintln(w, "== §1.2 / §2: the comparative order ==")
	pairs := [][2]string{
		{"(a)(b)(h)", "(a)(c)(f)"},
		{"(a, b)(c)", "(a)(b, c)"},
	}
	for _, pr := range pairs {
		a, b := seq.MustParsePattern(pr[0]), seq.MustParsePattern(pr[1])
		rel := "<"
		if seq.Compare(a, b) > 0 {
			rel = ">"
		}
		fmt.Fprintf(w, "  %s %s %s\n", a.Letters(), rel, b.Letters())
	}
	a := seq.MustParsePattern("(a, c, d)(d, b)")
	fmt.Fprintf(w, "\nExample 2.2 (canonical itemsets; see DESIGN.md for the paper's literal '(d, b)'):\n")
	fmt.Fprintf(w, "  A = %s\n", a.Letters())
	cs := seq.NewCustomerSeq(0, a.Itemsets()...)
	for k := 1; k <= 5; k++ {
		subs := kmin.AllKSubsequences(cs, k)
		fmt.Fprintf(w, "  %d-minimum subsequence: %s\n", k, subs[0].Letters())
	}
	fmt.Fprintln(w)
	return nil
}

func sectionKMinimum(w io.Writer, db mining.Database) error {
	fmt.Fprintln(w, "== Table 3: the 3-sorted database of Table 1 ==")
	type row struct {
		cid int
		min seq.Pattern
		cs  *seq.CustomerSeq
	}
	var rows []row
	for _, cs := range db {
		list := kmin.SortedList(kmin.AllKSubsequences(cs, 2))
		if r, ok := kmin.KMS(cs, list); ok {
			rows = append(rows, row{cs.CID, r.Min, cs})
		} else if subs := kmin.AllKSubsequences(cs, 3); len(subs) > 0 {
			rows = append(rows, row{cs.CID, subs[0], cs})
		}
	}
	sort.SliceStable(rows, func(i, j int) bool { return seq.Compare(rows[i].min, rows[j].min) < 0 })
	for _, r := range rows {
		fmt.Fprintf(w, "  CID %d  %-16s %s\n", r.cid, r.min.Letters(), r.cs.Pattern().Letters())
	}

	fmt.Fprintln(w, "\n== Table 4: after re-sorting CID 1 and 4 past α_δ = <(b)(d)(e)> (δ=3) ==")
	bound := seq.MustParsePattern("(b)(d)(e)")
	for i := range rows {
		if seq.Compare(rows[i].min, bound) < 0 {
			list := kmin.SortedList(kmin.AllKSubsequences(rows[i].cs, 2))
			if r, ok := kmin.CKMS(rows[i].cs, list, 0, bound, false); ok {
				rows[i].min = r.Min
			}
		}
	}
	sort.SliceStable(rows, func(i, j int) bool { return seq.Compare(rows[i].min, rows[j].min) < 0 })
	for _, r := range rows {
		fmt.Fprintf(w, "  CID %d  %-16s %s\n", r.cid, r.min.Letters(), r.cs.Pattern().Letters())
	}
	fmt.Fprintln(w)
	return nil
}

// The reduced <(a)(a)>-partition of Tables 7/8.
func partition() []*seq.CustomerSeq {
	return []*seq.CustomerSeq{
		seq.MustParseCustomerSeq(1, "(a)(a, g, h)(c)"),
		seq.MustParseCustomerSeq(2, "(b)(a)(a, c, e, g)"),
		seq.MustParseCustomerSeq(3, "(a, f, g)(a, e, g, h)(c, g, h)"),
		seq.MustParseCustomerSeq(4, "(f)(a, f)(a, c, e, g, h)"),
		seq.MustParseCustomerSeq(6, "(a, f)(a, e, g, h)"),
		seq.MustParseCustomerSeq(7, "(a, g)(a, e, g)(g, h)"),
	}
}

func list3() kmin.SortedList {
	return kmin.SortedList{
		seq.MustParsePattern("(a)(a, e)"),
		seq.MustParsePattern("(a)(a, g)"),
		seq.MustParsePattern("(a)(a, h)"),
	}
}

func sectionSortedDatabases(w io.Writer, _ mining.Database) error {
	fmt.Fprintln(w, "== Table 9: the 4-sorted database of the <(a)(a)>-partition (Example 3.3) ==")
	type row struct {
		cid int
		min seq.Pattern
		ptr int
	}
	var rows []row
	for _, cs := range partition() {
		if r, ok := kmin.KMS(cs, list3()); ok {
			rows = append(rows, row{cs.CID, r.Min, r.AprioriIdx})
		}
	}
	sort.SliceStable(rows, func(i, j int) bool { return seq.Compare(rows[i].min, rows[j].min) < 0 })
	for _, r := range rows {
		fmt.Fprintf(w, "  CID %d  %-18s apriori ptr %d\n", r.cid, r.min.Letters(), r.ptr+1)
	}

	fmt.Fprintln(w, "\n== Table 10: after re-sorting CID 3 (Example 3.4, bound <(a)(a, e, g)>, Ω='≥') ==")
	bound := seq.MustParsePattern("(a)(a, e, g)")
	// Every key below the bound (here only CID 3's <(a)(a, e)(c)>) moves to
	// its conditional 4-minimum subsequence.
	for i := range rows {
		if seq.Compare(rows[i].min, bound) < 0 {
			if r, ok := kmin.CKMS(partitionByCID(rows[i].cid), list3(), rows[i].ptr, bound, false); ok {
				rows[i].min, rows[i].ptr = r.Min, r.AprioriIdx
			}
		}
	}
	sort.SliceStable(rows, func(i, j int) bool { return seq.Compare(rows[i].min, rows[j].min) < 0 })
	for _, r := range rows {
		fmt.Fprintf(w, "  CID %d  %-18s apriori ptr %d\n", r.cid, r.min.Letters(), r.ptr+1)
	}
	fmt.Fprintln(w)
	return nil
}

func partitionByCID(cid int) *seq.CustomerSeq {
	for _, cs := range partition() {
		if cs.CID == cid {
			return cs
		}
	}
	panic("unknown cid")
}

func sectionPartitionDiscovery(w io.Writer, _ mining.Database) error {
	fmt.Fprintln(w, "== Example 3.5 / Figure 7: bi-level counting over the virtual partition ==")
	// Supporters of the frequent 4-sequence <(a)(a, e, g)>.
	key := seq.MustParsePattern("(a)(a, e, g)")
	var supporters []*seq.CustomerSeq
	for _, cs := range partition() {
		if cs.Contains(key) {
			supporters = append(supporters, cs)
		}
	}
	fmt.Fprintf(w, "  <(a)(a, e, g)> support (Table 10 shows its 5 supporters): %d\n", len(supporters))
	counts := map[seq.Item]int{}
	for ci, cs := range supporters {
		seen := map[seq.Item]bool{}
		_ = ci
		kmin.EnumExtensionsOf(cs, key, func(x seq.Item, _ int) {
			if !seen[x] {
				seen[x] = true
				counts[x]++
			}
		}, nil)
	}
	fmt.Fprintf(w, "  i-extension counts (paper's Figure 7 reaches (_h)=3): ")
	var items []seq.Item
	for x := range counts {
		items = append(items, x)
	}
	sort.Slice(items, func(i, j int) bool { return items[i] < items[j] })
	for _, x := range items {
		fmt.Fprintf(w, "(_%c)=%d ", 'a'+rune(x)-1, counts[x])
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "  => <(a)(a, e, g, h)> is the only frequent 5-sequence with this 4-prefix (Example 3.5)")
	return nil
}
