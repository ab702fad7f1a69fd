// Package difftest is the differential-correctness harness: it mines the
// same randomly generated databases with every registered algorithm and
// with the DISC-all family under every option combination that must not
// change the result set (bi-level on/off, partitioning levels, worker
// counts, the dynamic NRR threshold γ), and demands byte-identical result
// sets. On small inputs the reference is the exhaustive enumeration
// oracle; on larger ones the miners check each other. Every result set is
// additionally validated against algorithm-independent invariants
// (canonical patterns, support bounds, downward closure).
//
// When a mismatch is found, Shrink reduces the offending database to a
// minimal counterexample — dropping whole customers first, then
// transactions, then single items, to a fixpoint — and Counterexample
// renders it in the native text format ready to paste into a regression
// test.
package difftest

import (
	"fmt"
	"runtime"
	"strings"

	"github.com/disc-mining/disc/internal/bruteforce"
	"github.com/disc-mining/disc/internal/core"
	"github.com/disc-mining/disc/internal/data"
	"github.com/disc-mining/disc/internal/gen"
	"github.com/disc-mining/disc/internal/gsp"
	"github.com/disc-mining/disc/internal/mining"
	"github.com/disc-mining/disc/internal/seq"

	// Imported for their miner registrations: Variants enumerates the
	// registry, so every production algorithm must be linked in.
	_ "github.com/disc-mining/disc/internal/prefixspan"
	_ "github.com/disc-mining/disc/internal/spade"
	_ "github.com/disc-mining/disc/internal/spam"
)

// Variant is one mining configuration under test. New must return a fresh
// miner on every call: DISC miners carry per-run statistics, so instances
// are never shared between concurrent checks.
type Variant struct {
	Name string
	New  func() mining.Miner
}

// Variants enumerates every configuration that must produce identical
// results: all registered algorithms, the DISC-all option matrix
// (BiLevel × Levels ∈ {-1, 1, 2} × Workers ∈ {1, GOMAXPROCS}), a Dynamic
// DISC-all γ sweep including the newly representable γ = 0, and GSP's
// linear-scan counting path.
func Variants() []Variant {
	var vs []Variant
	for _, name := range mining.RegisteredNames() {
		name := name
		vs = append(vs, Variant{Name: name, New: func() mining.Miner {
			m, err := mining.NewRegistered(name)
			if err != nil {
				panic(err) // unreachable: the name came from the registry
			}
			return m
		}})
	}
	workers := []int{1}
	if np := runtime.GOMAXPROCS(0); np > 1 {
		workers = append(workers, np)
	}
	for _, bi := range []bool{false, true} {
		for _, levels := range []int{-1, 1, 2} {
			for _, w := range workers {
				opts := core.Options{BiLevel: bi, Levels: levels, Workers: w}
				vs = append(vs, Variant{
					Name: fmt.Sprintf("disc-all[bilevel=%t,levels=%d,workers=%d]", bi, levels, w),
					New:  func() mining.Miner { return &core.Miner{Opts: opts} },
				})
			}
		}
	}
	for _, gamma := range []float64{0, 0.25, 0.5, 0.75, 1.5} {
		for _, w := range workers {
			opts := core.Options{BiLevel: true, Gamma: gamma, Workers: w}
			vs = append(vs, Variant{
				Name: fmt.Sprintf("dynamic-disc-all[gamma=%g,workers=%d]", gamma, w),
				New:  func() mining.Miner { return &core.Dynamic{Opts: opts} },
			})
		}
	}
	vs = append(vs, Variant{
		Name: "gsp[nohashtree]",
		New:  func() mining.Miner { return gsp.Miner{NoHashTree: true} },
	})
	return vs
}

// Case is one cell of the differential grid: a generator shape plus a
// relative support threshold. Mutate additionally perturbs the generated
// database through gen.Mutate, reaching shapes the statistical process
// never emits.
type Case struct {
	Name   string
	Config gen.Config
	Frac   float64
	Mutate bool
}

// Grid returns the differential test grid: generator shapes crossed over
// ncust, slen, tlen, nitems, minsup fraction and seed — 128 databases.
// Even-seed cells run through gen.Mutate.
func Grid() []Case {
	var cases []Case
	for _, nc := range []int{25, 60} {
		for _, sl := range []float64{2.5, 5} {
			for _, tl := range []float64{1.25, 2} {
				for _, ni := range []int{10, 40} {
					for _, frac := range []float64{0.15, 0.4} {
						for seed := int64(1); seed <= 4; seed++ {
							cases = append(cases, Case{
								Name: fmt.Sprintf("ncust=%d/slen=%g/tlen=%g/nitems=%d/frac=%g/seed=%d",
									nc, sl, tl, ni, frac, seed),
								Config: gen.Config{
									NCust: nc, SLen: sl, TLen: tl, NItems: ni,
									SeqPatLen: 2, NSeqPatterns: 30, NLitPatterns: 60,
									Seed: seed,
								},
								Frac:   frac,
								Mutate: seed%2 == 0,
							})
						}
					}
				}
			}
		}
	}
	return cases
}

// Mismatch reports a disagreement: the result sets of two variants (or of
// a variant and the oracle) differ on DB, or a variant's result violates
// an invariant or errors. Its Error text embeds the database in native
// format via Counterexample.
type Mismatch struct {
	Ref, Got string // variant names ("" Ref when Got itself is invalid)
	MinSup   int
	DB       mining.Database
	Detail   string
}

// Error implements error.
func (m *Mismatch) Error() string {
	head := fmt.Sprintf("difftest: %s disagrees with %s at minsup=%d", m.Got, m.Ref, m.MinSup)
	if m.Ref == "" {
		head = fmt.Sprintf("difftest: %s is invalid at minsup=%d", m.Got, m.MinSup)
	}
	return fmt.Sprintf("%s:\n%s\ndatabase (%d customers, native format):\n%s",
		head, m.Detail, len(m.DB), Counterexample(m.DB))
}

// oracleMaxLen bounds the customer-sequence length the exhaustive oracle
// is asked to enumerate (its cost is exponential in it).
const oracleMaxLen = 12

// OracleFeasible reports whether db is small enough for the exhaustive
// enumeration oracle to be the reference.
func OracleFeasible(db mining.Database) bool {
	if len(db) > 40 {
		return false
	}
	for _, cs := range db {
		if cs.Len() > oracleMaxLen {
			return false
		}
	}
	return true
}

// Check mines db at minSup with every Variants() configuration and
// returns the first disagreement, or nil when all agree and every result
// set satisfies the invariants. On oracle-feasible databases the
// reference is the exhaustive oracle; otherwise the variants are compared
// against each other (first one is the reference).
func Check(db mining.Database, minSup int) *Mismatch {
	return CheckVariants(db, minSup, Variants())
}

// CheckVariants is Check over an explicit variant list — the shrinking
// loop uses it with just the two disagreeing configurations to keep the
// fail predicate cheap.
func CheckVariants(db mining.Database, minSup int, vs []Variant) *Mismatch {
	var ref *mining.Result
	refName := ""
	if OracleFeasible(db) {
		res, err := bruteforce.Exhaustive{}.Mine(db, minSup)
		if err != nil {
			return &Mismatch{Got: "exhaustive-oracle", MinSup: minSup, DB: db,
				Detail: "oracle error: " + err.Error()}
		}
		ref, refName = res, "exhaustive-oracle"
	}
	for _, v := range vs {
		res, err := v.New().Mine(db, minSup)
		if err != nil {
			return &Mismatch{Got: v.Name, MinSup: minSup, DB: db,
				Detail: "mine error: " + err.Error()}
		}
		if err := CheckInvariants(res, minSup, len(db)); err != nil {
			return &Mismatch{Got: v.Name, MinSup: minSup, DB: db,
				Detail: "invariant violated: " + err.Error()}
		}
		if ref == nil {
			ref, refName = res, v.Name
			continue
		}
		if diff := ref.Diff(res); diff != "" {
			return &Mismatch{Ref: refName, Got: v.Name, MinSup: minSup, DB: db, Detail: diff}
		}
	}
	return nil
}

// CheckInvariants validates algorithm-independent properties of a result
// set: every pattern is canonical and non-empty, every support lies in
// [minSup, dbSize], and the set is downward closed — each (k-1)-item
// subsequence of a reported pattern is reported too, with at least the
// superpattern's support.
func CheckInvariants(res *mining.Result, minSup, dbSize int) error {
	for _, pc := range res.Sorted() {
		p := pc.Pattern
		if p.Len() == 0 {
			return fmt.Errorf("empty pattern reported")
		}
		items := make([]seq.Item, p.Len())
		tnos := make([]int32, p.Len())
		for i := 0; i < p.Len(); i++ {
			items[i], tnos[i] = p.ItemAt(i), p.TNoAt(i)
		}
		if _, err := seq.PatternFromPairs(items, tnos); err != nil {
			return fmt.Errorf("non-canonical pattern %s: %w", p, err)
		}
		if pc.Support < minSup || pc.Support > dbSize {
			return fmt.Errorf("pattern %s: support %d outside [%d, %d]",
				p, pc.Support, minSup, dbSize)
		}
		if p.Len() == 1 {
			continue
		}
		for i := 0; i < p.Len(); i++ {
			sub := p.DropItem(i)
			ssup, ok := res.Support(sub)
			if !ok {
				return fmt.Errorf("downward closure violated: %s reported but its subsequence %s is not", p, sub)
			}
			if ssup < pc.Support {
				return fmt.Errorf("anti-monotonicity violated: %s has support %d > subsequence %s with %d",
					p, pc.Support, sub, ssup)
			}
		}
	}
	return nil
}

// Shrink minimizes a database that makes fail return true: it repeatedly
// drops whole customers, then transactions, then single items, restarting
// after every successful reduction until no single removal keeps the
// predicate failing. fail must be deterministic. The input database is
// not modified; if fail(db) is false, db is returned unchanged.
func Shrink(db mining.Database, fail func(mining.Database) bool) mining.Database {
	if !fail(db) {
		return db
	}
	cur := append(mining.Database(nil), db...)
	for changed := true; changed; {
		changed = false
		// Pass 1: drop customers.
		for i := 0; i < len(cur); i++ {
			cand := make(mining.Database, 0, len(cur)-1)
			cand = append(append(cand, cur[:i]...), cur[i+1:]...)
			if fail(cand) {
				cur, changed = cand, true
				i--
			}
		}
		// Pass 2: drop transactions.
		for c := 0; c < len(cur); c++ {
			for t := 0; t < cur[c].NTrans(); t++ {
				if cand := dropTrans(cur, c, t); fail(cand) {
					cur, changed = cand, true
					if c >= len(cur) { // customer vanished
						break
					}
					t--
				}
			}
		}
		// Pass 3: drop single items.
		for c := 0; c < len(cur); c++ {
			for t := 0; t < cur[c].NTrans(); t++ {
				for i := 0; i < len(cur[c].Transaction(t)); i++ {
					if cand := dropItem(cur, c, t, i); fail(cand) {
						cur, changed = cand, true
						if c >= len(cur) || t >= cur[c].NTrans() {
							break
						}
						i--
					}
				}
			}
		}
	}
	return cur
}

// rebuild replaces customer c of db with one built from sets (dropping it
// when sets is empty), sharing all other customers.
func rebuild(db mining.Database, c int, sets []seq.Itemset) mining.Database {
	out := make(mining.Database, 0, len(db))
	out = append(out, db[:c]...)
	if len(sets) > 0 {
		out = append(out, seq.NewCustomerSeq(db[c].CID, sets...))
	}
	return append(out, db[c+1:]...)
}

func dropTrans(db mining.Database, c, t int) mining.Database {
	src := db[c].Itemsets()
	sets := make([]seq.Itemset, 0, len(src)-1)
	sets = append(append(sets, src[:t]...), src[t+1:]...)
	return rebuild(db, c, sets)
}

func dropItem(db mining.Database, c, t, i int) mining.Database {
	src := db[c].Itemsets()
	sets := make([]seq.Itemset, len(src))
	copy(sets, src)
	tx := src[t]
	if len(tx) == 1 {
		return dropTrans(db, c, t)
	}
	nt := make(seq.Itemset, 0, len(tx)-1)
	nt = append(append(nt, tx[:i]...), tx[i+1:]...)
	sets[t] = nt
	return rebuild(db, c, sets)
}

// Counterexample renders db in the native text format, one customer per
// line, ready to paste into a regression test or a file for
// cmd/discmine.
func Counterexample(db mining.Database) string {
	var b strings.Builder
	if err := data.Write(&b, db, data.Native); err != nil {
		return "unrenderable database: " + err.Error()
	}
	return b.String()
}
