package counting

import (
	"math/rand"
	"testing"

	"github.com/disc-mining/disc/internal/seq"
)

func TestDedupByCID(t *testing.T) {
	a := New(10)
	// Customer 1 touches item 3 twice in each form: counts once.
	a.TouchS(3, 1)
	a.TouchS(3, 1)
	a.TouchI(3, 1)
	a.TouchI(3, 1)
	a.TouchS(3, 2)
	if a.SupS(3) != 2 {
		t.Errorf("SupS(3) = %d, want 2", a.SupS(3))
	}
	if a.SupI(3) != 1 {
		t.Errorf("SupI(3) = %d, want 1", a.SupI(3))
	}
	if a.SupS(4) != 0 || a.SupI(4) != 0 {
		t.Error("untouched item has nonzero support")
	}
}

func TestResetIsO1AndComplete(t *testing.T) {
	a := New(5)
	for cid := int32(1); cid <= 4; cid++ {
		for x := seq.Item(1); x <= 5; x++ {
			a.TouchS(x, cid)
			a.TouchI(x, cid)
		}
	}
	a.Reset()
	for x := seq.Item(1); x <= 5; x++ {
		if a.SupS(x) != 0 || a.SupI(x) != 0 {
			t.Fatalf("item %d survived Reset", x)
		}
	}
	if got := a.FrequentS(1, nil); len(got) != 0 {
		t.Errorf("FrequentS after Reset = %v", got)
	}
	// Counts behave normally after reset (epoch stamping must not confuse
	// stale cells).
	a.TouchS(2, 7)
	if a.SupS(2) != 1 {
		t.Errorf("SupS(2) after reset = %d", a.SupS(2))
	}
}

func TestFrequentAscendingOrder(t *testing.T) {
	a := New(20)
	for _, x := range []seq.Item{9, 2, 17, 5} {
		for cid := int32(1); cid <= 3; cid++ {
			a.TouchS(x, cid)
		}
	}
	a.TouchS(12, 1) // below threshold
	got := a.FrequentS(3, nil)
	want := []seq.Item{2, 5, 9, 17}
	if len(got) != len(want) {
		t.Fatalf("FrequentS = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("FrequentS = %v, want %v", got, want)
		}
	}
}

// TestAgainstMapModel drives random touch sequences and compares against a
// map-based model, across many epochs.
func TestAgainstMapModel(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	a := New(8)
	for epoch := 0; epoch < 50; epoch++ {
		a.Reset()
		modelS := map[seq.Item]map[int32]bool{}
		modelI := map[seq.Item]map[int32]bool{}
		// The last-CID dedup assumes each customer's touches are
		// contiguous, as in a database scan: iterate customers in order
		// with a random burst of touches each.
		for cid := int32(1); cid <= 10; cid++ {
			for op := 0; op < 20; op++ {
				x := seq.Item(1 + r.Intn(8))
				if r.Intn(2) == 0 {
					a.TouchS(x, cid)
					if modelS[x] == nil {
						modelS[x] = map[int32]bool{}
					}
					modelS[x][cid] = true
				} else {
					a.TouchI(x, cid)
					if modelI[x] == nil {
						modelI[x] = map[int32]bool{}
					}
					modelI[x][cid] = true
				}
			}
		}
		for x := seq.Item(1); x <= 8; x++ {
			if a.SupS(x) != len(modelS[x]) {
				t.Fatalf("epoch %d SupS(%d) = %d, model %d", epoch, x, a.SupS(x), len(modelS[x]))
			}
			if a.SupI(x) != len(modelI[x]) {
				t.Fatalf("epoch %d SupI(%d) = %d, model %d", epoch, x, a.SupI(x), len(modelI[x]))
			}
		}
	}
}

// Caveat from the paper's counting-array description: the last-CID trick
// only works when each customer's touches are contiguous. Out-of-order
// re-touching by an earlier customer would double count — assert the
// documented behaviour so the DISC-all code keeps respecting it.
func TestNonContiguousCIDsDoubleCount(t *testing.T) {
	a := New(4)
	a.TouchS(1, 1)
	a.TouchS(1, 2)
	a.TouchS(1, 1) // revisiting customer 1: counted again by design
	if a.SupS(1) != 3 {
		t.Errorf("SupS = %d; the last-CID mechanism assumes contiguous customer scans", a.SupS(1))
	}
}

// TestSteadyStateZeroAllocs pins the scratch-buffer property the engine
// arenas rely on: after one warm round, a full touch / frequent-scan /
// Reset cycle of the same shape performs zero heap allocations — the
// Frequent* scans filter the touched list into the caller's buffer and
// sort the survivors there, with no staging copy.
func TestSteadyStateZeroAllocs(t *testing.T) {
	a := New(60)
	buf := make([]seq.Item, 0, 64)
	round := func() {
		for i := 0; i < 200; i++ {
			a.TouchS(seq.Item(i%53+1), int32(i%17))
			a.TouchI(seq.Item(i%41+1), int32(i%17))
		}
		buf = a.FrequentS(3, buf[:0])
		buf = a.FrequentI(3, buf[:0])
		a.Reset()
	}
	round()
	round()
	if allocs := testing.AllocsPerRun(20, round); allocs != 0 {
		t.Fatalf("steady-state round allocated %.0f times, want 0", allocs)
	}
}

// TestMemBytesAccounting sanity-checks the O(1) footprint report: zero
// before any slab exists is impossible (New allocates the support
// slabs), but the figure must grow once the touched lists fill, and must
// be stable across Reset (slabs are retained).
func TestMemBytesAccounting(t *testing.T) {
	a := New(100)
	base := a.MemBytes()
	if base <= 0 {
		t.Fatalf("fresh array MemBytes = %d", base)
	}
	for i := 0; i < 300; i++ {
		a.TouchS(seq.Item(i%97+1), int32(i))
	}
	a.FrequentS(1, nil)
	grown := a.MemBytes()
	if grown <= base {
		t.Fatalf("MemBytes did not grow with touched lists: %d -> %d", base, grown)
	}
	a.Reset()
	if got := a.MemBytes(); got != grown {
		t.Fatalf("Reset changed MemBytes %d -> %d; slabs should be retained", grown, got)
	}
}
