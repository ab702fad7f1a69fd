package cluster

import (
	"os"
	"testing"
	"time"

	"github.com/disc-mining/disc/internal/checkpoint"
)

// TestStorageGCSweepsAndScrubsLedgerDir: one StorageGC pass reclaims
// ledgers past retention and quarantines resting bit-rot, leaving a
// fresh, valid ledger untouched.
func TestStorageGCSweepsAndScrubsLedgerDir(t *testing.T) {
	dir := t.TempDir()
	ledger := func(fp uint64) *checkpoint.Ledger {
		return &checkpoint.Ledger{
			Algo: "disc-all", Fingerprint: fp, MinSup: 2, DB: "1 2 3\n",
			Shards: []checkpoint.LedgerShard{{State: checkpoint.ShardPending}},
		}
	}

	stale := LedgerPath(dir, 0xaa)
	if _, err := ledger(0xaa).WriteFile(stale); err != nil {
		t.Fatal(err)
	}
	old := time.Now().Add(-48 * time.Hour)
	if err := os.Chtimes(stale, old, old); err != nil {
		t.Fatal(err)
	}

	rotted := LedgerPath(dir, 0xbb)
	if _, err := ledger(0xbb).WriteFile(rotted); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(rotted)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/3] ^= 0x20
	if err := os.WriteFile(rotted, b, 0o644); err != nil {
		t.Fatal(err)
	}

	live := LedgerPath(dir, 0xcc)
	if _, err := ledger(0xcc).WriteFile(live); err != nil {
		t.Fatal(err)
	}

	c := New(Config{
		Peers:     []string{"http://127.0.0.1:1"}, // never contacted
		LedgerDir: dir, StorageRetention: 24 * time.Hour, Logf: t.Logf,
	})
	c.StorageGC(0)()

	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Errorf("stale ledger survived GC (stat err: %v)", err)
	}
	if _, err := os.Stat(rotted + checkpoint.QuarantineSuffix); err != nil {
		t.Errorf("rotted ledger not quarantined: %v", err)
	}
	if got := c.QuarantinedLedgers(); got != 1 {
		t.Errorf("QuarantinedLedgers = %d, want 1", got)
	}
	if _, err := checkpoint.ReadLedgerFileFS(nil, live); err != nil {
		t.Errorf("fresh valid ledger must survive GC intact: %v", err)
	}
}
