// Benchmarks regenerating the workload of every table and figure of the
// paper's evaluation (§4), one benchmark per artifact, at a laptop-friendly
// fixed scale (the cmd/experiments tool runs the full sweeps; see
// EXPERIMENTS.md for paper-vs-measured results).
//
//	go test -bench=. -benchmem
package disc

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"github.com/disc-mining/disc/internal/core"
	"github.com/disc-mining/disc/internal/gen"
	"github.com/disc-mining/disc/internal/mining"
	"github.com/disc-mining/disc/internal/prefixspan"
	"github.com/disc-mining/disc/internal/testutil"
)

// Workload cache: databases are generated once and shared by the
// benchmarks that sweep over them.
var (
	once     sync.Once
	sparseDB Database // Figure 8 point: Table 11 defaults
	denseDB  Database // Figure 9 / Tables 12-13: slen=tlen=seq.patlen=8
	thetaDB  Database // Table 14 / Figure 10 point: θ=20
	smallDB  Database // Table 5 all-baselines point: small alphabet so the
	// quadratic candidate generators (GSP, LevelWise) stay in budget
)

func workloads(b *testing.B) {
	b.Helper()
	once.Do(func() {
		mustGen := func(c gen.Config) Database {
			db, err := gen.Generate(c)
			if err != nil {
				b.Fatal(err)
			}
			return db
		}
		// Pattern pools stay at the Quest defaults: with fixed pools both δ
		// and the planted-pattern supports scale with the customer count,
		// preserving the paper workloads' δ-to-support ratio (see
		// internal/bench docs).
		sparse := gen.PaperDefaults(2000)
		sparse.Seed = 1
		sparseDB = mustGen(sparse)

		dense := gen.DenseDefaults(500)
		dense.Seed = 1
		denseDB = mustGen(dense)

		theta := gen.PaperDefaults(1000)
		theta.SLen = 20
		theta.Seed = 1
		thetaDB = mustGen(theta)

		small := gen.PaperDefaults(300)
		small.NItems = 100
		small.NSeqPatterns, small.NLitPatterns = 100, 500
		small.Seed = 1
		smallDB = mustGen(small)
	})
}

func benchMiner(b *testing.B, m mining.Miner, db Database, minSup int) {
	b.Helper()
	b.ReportAllocs()
	var patterns int
	for i := 0; i < b.N; i++ {
		res, err := m.Mine(db, minSup)
		if err != nil {
			b.Fatal(err)
		}
		patterns = res.Len()
	}
	b.ReportMetric(float64(patterns), "patterns")
}

// BenchmarkMine measures the default engine (slab tree + round arenas)
// on an engine-dominated skewed workload — small item alphabet, deep
// partition recursion, many DISC rounds, the same family as the
// instrumentation-overhead guard — at the three customer counts recorded
// in BENCH_pr6.json. The paper-figure benchmarks below measure end-to-end
// mining where result-set construction dominates; this one isolates the
// engine core.
func BenchmarkMine(b *testing.B) {
	for _, sc := range []struct {
		name  string
		ncust int
	}{{"small", 200}, {"medium", 400}, {"large", 600}} {
		db := Database(testutil.SkewedRandomDB(rand.New(rand.NewSource(77)), sc.ncust, 14, 8, 5))
		b.Run(sc.name, func(b *testing.B) {
			benchMiner(b, NewDISCAll(DefaultOptions()), db, 4)
		})
	}
}

// BenchmarkFig8 measures the Figure 8 point (database-size sweep, minsup
// 0.0025, Table 11 parameters) for the three compared algorithms.
func BenchmarkFig8(b *testing.B) {
	workloads(b)
	minSup := AbsSupport(0.0025, len(sparseDB))
	if minSup < 2 {
		minSup = 2
	}
	b.Run("DISCAll", func(b *testing.B) { benchMiner(b, core.New(), sparseDB, minSup) })
	b.Run("PrefixSpan", func(b *testing.B) { benchMiner(b, prefixspan.Basic{}, sparseDB, minSup) })
	b.Run("Pseudo", func(b *testing.B) { benchMiner(b, prefixspan.Pseudo{}, sparseDB, minSup) })
}

// BenchmarkFig9 measures the Figure 9 point (dense database, two ends of
// the threshold sweep) for the three compared algorithms.
func BenchmarkFig9(b *testing.B) {
	workloads(b)
	for _, frac := range []float64{0.02, 0.005} {
		minSup := AbsSupport(frac, len(denseDB))
		b.Run("DISCAll/minsup="+trim(frac), func(b *testing.B) { benchMiner(b, core.New(), denseDB, minSup) })
		b.Run("PrefixSpan/minsup="+trim(frac), func(b *testing.B) { benchMiner(b, prefixspan.Basic{}, denseDB, minSup) })
		b.Run("Pseudo/minsup="+trim(frac), func(b *testing.B) { benchMiner(b, prefixspan.Pseudo{}, denseDB, minSup) })
	}
}

// BenchmarkTable12NRR measures the Table 12 pipeline: a DISC-all run plus
// the per-level NRR aggregation of §4.2.
func BenchmarkTable12NRR(b *testing.B) {
	workloads(b)
	minSup := AbsSupport(0.01, len(denseDB))
	m := core.New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := m.Mine(denseDB, minSup)
		if err != nil {
			b.Fatal(err)
		}
		nrr := NRRByLevel(res, len(denseDB))
		if len(nrr) == 0 {
			b.Fatal("no NRR levels")
		}
	}
}

// BenchmarkTable13Ratio measures the two sides of the Table 13 ratio
// (Pseudo vs DISC-all on the dense database at minsup 0.0075).
func BenchmarkTable13Ratio(b *testing.B) {
	workloads(b)
	minSup := AbsSupport(0.0075, len(denseDB))
	b.Run("Pseudo", func(b *testing.B) { benchMiner(b, prefixspan.Pseudo{}, denseDB, minSup) })
	b.Run("DISCAll", func(b *testing.B) { benchMiner(b, core.New(), denseDB, minSup) })
}

// BenchmarkTable14NRR measures the Table 14 pipeline at θ=20.
func BenchmarkTable14NRR(b *testing.B) {
	workloads(b)
	minSup := AbsSupport(0.005, len(thetaDB))
	m := core.New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := m.Mine(thetaDB, minSup)
		if err != nil {
			b.Fatal(err)
		}
		_ = NRRByLevel(res, len(thetaDB))
	}
}

// BenchmarkFig10 measures the Figure 10 point (θ=20, minsup 0.005) for all
// four compared algorithms, including Dynamic DISC-all.
func BenchmarkFig10(b *testing.B) {
	workloads(b)
	minSup := AbsSupport(0.005, len(thetaDB))
	b.Run("DISCAll", func(b *testing.B) { benchMiner(b, core.New(), thetaDB, minSup) })
	b.Run("DynamicDISCAll", func(b *testing.B) { benchMiner(b, core.NewDynamic(), thetaDB, minSup) })
	b.Run("PrefixSpan", func(b *testing.B) { benchMiner(b, prefixspan.Basic{}, thetaDB, minSup) })
	b.Run("Pseudo", func(b *testing.B) { benchMiner(b, prefixspan.Pseudo{}, thetaDB, minSup) })
}

// BenchmarkMineParallel sweeps the partition worker pool on the Figure 8
// workload. On a multi-CPU host the larger pools should show the speedup
// the execution layer is for; on one CPU the sweep measures the scheduling
// overhead of the parallel path (eager bucket computation plus merge),
// which must stay small. The mined result is identical at every width.
func BenchmarkMineParallel(b *testing.B) {
	workloads(b)
	minSup := AbsSupport(0.0025, len(sparseDB))
	if minSup < 2 {
		minSup = 2
	}
	widths := []int{1, 2, 4}
	if g := runtime.GOMAXPROCS(0); g != 1 && g != 2 && g != 4 {
		widths = append(widths, g)
	}
	for _, w := range widths {
		m := NewDISCAll(Options{BiLevel: true, Levels: 2, Workers: w})
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) { benchMiner(b, m, sparseDB, minSup) })
	}
}

// BenchmarkTable5Baselines complements the static Table 5 matrix with a
// like-for-like timing of every implemented algorithm on one workload — a
// small-alphabet database, because GSP's and LevelWise's candidate
// generation is quadratic in the number of frequent items.
func BenchmarkTable5Baselines(b *testing.B) {
	workloads(b)
	minSup := AbsSupport(0.05, len(smallDB))
	for _, a := range Algorithms() {
		m, err := NewMiner(a)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(string(a), func(b *testing.B) { benchMiner(b, m, smallDB, minSup) })
	}
}

func trim(f float64) string {
	switch f {
	case 0.02:
		return "0.02"
	case 0.005:
		return "0.005"
	}
	return "x"
}
