package checkpoint

import (
	"os"
	"path/filepath"
	"testing"
	"time"
)

// writeAged writes content at path and backdates its mtime by age.
func writeAged(t *testing.T, path, content string, now time.Time, age time.Duration) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	when := now.Add(-age)
	if err := os.Chtimes(path, when, when); err != nil {
		t.Fatal(err)
	}
}

func TestKindOf(t *testing.T) {
	cases := map[string]string{
		"a/b/0123.ckpt":           KindCheckpoint,
		"a/b/0123.ledger":         KindLedger,
		"a/b/0123.ckpt.tmp":       KindTmp,
		"a/b/0123.ledger.corrupt": KindQuarantined,
		"a/b/0123.ckpt.corrupt":   KindQuarantined,
		"a/b/README.md":           "",
		"a/b/results.json":        "",
	}
	for path, want := range cases {
		if got := kindOf(path); got != want {
			t.Errorf("kindOf(%q) = %q, want %q", path, got, want)
		}
	}
}

func TestSweepReclaimsByAge(t *testing.T) {
	dir := t.TempDir()
	now := time.Now()
	writeAged(t, filepath.Join(dir, "old.ckpt"), "x", now, 48*time.Hour)
	writeAged(t, filepath.Join(dir, "old.ledger"), "x", now, 48*time.Hour)
	writeAged(t, filepath.Join(dir, "stale.ckpt.tmp"), "x", now, 48*time.Hour)
	writeAged(t, filepath.Join(dir, "fresh.ckpt"), "x", now, time.Hour)
	writeAged(t, filepath.Join(dir, "kept.ckpt"), "x", now, 48*time.Hour)
	writeAged(t, filepath.Join(dir, "not-ours.txt"), "x", now, 48*time.Hour)

	var gotFiles int
	var gotBytes int64
	s := &sweeper{
		retention: 24 * time.Hour,
		now:       func() time.Time { return now },
		keep:      func(path string) bool { return filepath.Base(path) == "kept.ckpt" },
		onReclaim: func(kind string, files int, bytes int64) { gotFiles += files; gotBytes += bytes },
	}
	if n := s.Sweep(dir); n != 3 {
		t.Fatalf("Sweep reclaimed %d files, want 3", n)
	}
	if gotFiles != 3 || gotBytes != 3 {
		t.Fatalf("onReclaim saw %d files / %d bytes, want 3 / 3", gotFiles, gotBytes)
	}
	for _, name := range []string{"fresh.ckpt", "kept.ckpt", "not-ours.txt"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("%s should have survived the sweep: %v", name, err)
		}
	}
	for _, name := range []string{"old.ckpt", "old.ledger", "stale.ckpt.tmp"} {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Errorf("%s should have been reclaimed (stat err: %v)", name, err)
		}
	}
}

func TestSweepCapsQuarantine(t *testing.T) {
	dir := t.TempDir()
	now := time.Now()
	// Five young quarantined files, oldest first by mtime; cap of 2 must
	// keep only the two newest even though none exceed the retention age.
	names := []string{"a.ckpt.corrupt", "b.ckpt.corrupt", "c.ledger.corrupt", "d.ckpt.corrupt", "e.ckpt.corrupt"}
	for i, name := range names {
		writeAged(t, filepath.Join(dir, name), "x", now, time.Duration(len(names)-i)*time.Minute)
	}
	s := &sweeper{
		retention:      24 * time.Hour,
		maxQuarantined: 2,
		now:            func() time.Time { return now },
	}
	if n := s.Sweep(dir); n != 3 {
		t.Fatalf("Sweep reclaimed %d files, want 3", n)
	}
	for _, name := range names[:3] {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Errorf("oldest quarantined file %s should be gone (stat err: %v)", name, err)
		}
	}
	for _, name := range names[3:] {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("newest quarantined file %s should survive: %v", name, err)
		}
	}
}

func TestSweepZeroValueDeletesNothing(t *testing.T) {
	dir := t.TempDir()
	now := time.Now()
	writeAged(t, filepath.Join(dir, "ancient.ckpt"), "x", now, 1000*time.Hour)
	writeAged(t, filepath.Join(dir, "ancient.ckpt.corrupt"), "x", now, 1000*time.Hour)
	var s sweeper
	if n := s.Sweep(dir); n != 0 {
		t.Fatalf("zero-value Sweep reclaimed %d files, want 0", n)
	}
}

func TestSweepMissingDir(t *testing.T) {
	s := &sweeper{retention: time.Hour}
	if n := s.Sweep(filepath.Join(t.TempDir(), "never-created")); n != 0 {
		t.Fatal("sweeping a missing directory should reclaim nothing")
	}
}

func TestScrubQuarantinesBitRot(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "0000000000000001.ckpt")
	if _, err := sample().WriteFile(good); err != nil {
		t.Fatal(err)
	}
	rotted := filepath.Join(dir, "0000000000000002.ckpt")
	if _, err := sample().WriteFile(rotted); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(rotted)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0x10 // rot one bit at rest
	if err := os.WriteFile(rotted, b, 0o644); err != nil {
		t.Fatal(err)
	}
	ledger := filepath.Join(dir, "0000000000000003.ledger")
	if _, err := sampleLedger().WriteFile(ledger); err != nil {
		t.Fatal(err)
	}

	var kinds []string
	s := &sweeper{onQuarantine: func(kind string) { kinds = append(kinds, kind) }}
	if n := s.Scrub(dir); n != 1 {
		t.Fatalf("Scrub quarantined %d files, want 1", n)
	}
	if len(kinds) != 1 || kinds[0] != KindCheckpoint {
		t.Fatalf("onQuarantine kinds = %v, want [checkpoint]", kinds)
	}
	if _, err := os.Stat(rotted + QuarantineSuffix); err != nil {
		t.Fatalf("rotted checkpoint should be at %s: %v", rotted+QuarantineSuffix, err)
	}
	if _, err := os.Stat(rotted); !os.IsNotExist(err) {
		t.Fatalf("rotted checkpoint should no longer hold its original name (stat err: %v)", err)
	}
	if _, err := ReadFileFS(nil, good); err != nil {
		t.Fatalf("intact checkpoint must survive a scrub untouched: %v", err)
	}
	if _, err := ReadLedgerFileFS(nil, ledger); err != nil {
		t.Fatalf("intact ledger must survive a scrub untouched: %v", err)
	}
	// A second pass finds nothing left to quarantine.
	if n := s.Scrub(dir); n != 0 {
		t.Fatalf("second Scrub quarantined %d files, want 0", n)
	}
}

func TestQuarantineRename(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "deadbeef.ledger")
	if err := os.WriteFile(path, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	q, err := Quarantine(nil, path)
	if err != nil {
		t.Fatal(err)
	}
	if q != path+QuarantineSuffix {
		t.Fatalf("quarantine path %q, want %q", q, path+QuarantineSuffix)
	}
	b, err := os.ReadFile(q)
	if err != nil || string(b) != "garbage" {
		t.Fatalf("quarantined evidence must survive intact: %q, %v", b, err)
	}
	if _, err := Quarantine(nil, path); err == nil {
		t.Fatal("quarantining a missing file should fail")
	}
}
