// Retention GC and resting-file scrubbing for durable-state
// directories. Checkpoints of abandoned jobs, ledgers of jobs whose
// retire() never ran, interrupted .tmp staging files and quarantined
// *.corrupt evidence all accumulate without bound unless something
// sweeps them; and a file that verified when written can still rot on
// the platter. The sweeper bounds the first problem by age and count,
// the Scrub pass catches the second by re-verifying CRCs at rest and
// quarantining what no longer decodes.
package checkpoint

import (
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// Kinds labelling swept and quarantined files in metrics and logs.
const (
	KindCheckpoint  = "checkpoint"
	KindLedger      = "ledger"
	KindQuarantined = "quarantined"
	KindTmp         = "tmp"
)

// kindOf classifies a durable-state file by its suffix ("" = not ours).
func kindOf(path string) string {
	switch {
	case strings.HasSuffix(path, QuarantineSuffix):
		return KindQuarantined
	case strings.HasSuffix(path, ".tmp"):
		return KindTmp
	case strings.HasSuffix(path, ".ckpt"):
		return KindCheckpoint
	case strings.HasSuffix(path, ".ledger"):
		return KindLedger
	}
	return ""
}

// sweeper reclaims aged durable-state files and re-verifies resting
// ones. Durability builds the one sweeper each directory has, wired to
// the storage metrics; a zero value never deletes anything.
type sweeper struct {
	// fs carries removals and quarantine renames (nil = OS). Directory
	// listing and mtime stat use the os package directly: metadata reads
	// are not a fault-injection surface.
	fs FS
	// retention is the age beyond which an orphaned checkpoint, retired
	// ledger, quarantined file or stale .tmp is reclaimed. Zero disables
	// age-based sweeping.
	retention time.Duration
	// maxQuarantined caps how many *.corrupt files a directory may hold;
	// beyond it the oldest are reclaimed regardless of age. Zero means
	// uncapped.
	maxQuarantined int
	// keep vetoes reclamation of a live file (nil keeps nothing extra).
	keep func(path string) bool
	// now is the clock (nil = time.Now).
	now func() time.Time
	// logf receives one line per reclaimed or quarantined file (nil =
	// silent).
	logf func(format string, args ...any)
	// onReclaim observes every successful removal, by kind.
	onReclaim func(kind string, files int, bytes int64)
	// onQuarantine observes every file the scrub quarantines, by kind.
	onQuarantine func(kind string)
}

func (s *sweeper) log(format string, args ...any) {
	if s.logf != nil {
		s.logf(format, args...)
	}
}

func (s *sweeper) clock() time.Time {
	if s.now != nil {
		return s.now()
	}
	return time.Now()
}

type agedFile struct {
	path  string
	kind  string
	size  int64
	mtime time.Time
}

// list stats every durable-state file in dir, oldest first.
func (s *sweeper) list(dir string) []agedFile {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if !os.IsNotExist(err) {
			s.log("storage: gc cannot list %s: %v", dir, err)
		}
		return nil
	}
	var files []agedFile
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		path := filepath.Join(dir, e.Name())
		kind := kindOf(path)
		if kind == "" {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		files = append(files, agedFile{path: path, kind: kind, size: info.Size(), mtime: info.ModTime()})
	}
	sort.Slice(files, func(i, j int) bool { return files[i].mtime.Before(files[j].mtime) })
	return files
}

func (s *sweeper) reclaim(f agedFile, why string) bool {
	if s.keep != nil && s.keep(f.path) {
		return false
	}
	if err := orOS(s.fs).Remove(f.path); err != nil {
		s.log("storage: gc cannot remove %s: %v", f.path, err)
		return false
	}
	s.log("storage: gc reclaimed %s %s (%d bytes, %s)", f.kind, filepath.Base(f.path), f.size, why)
	if s.onReclaim != nil {
		s.onReclaim(f.kind, 1, f.size)
	}
	return true
}

// Sweep applies the retention policy to dir: files older than retention
// are removed (subject to keep), and *.corrupt files beyond
// maxQuarantined are removed oldest-first regardless of age. Returns
// the number of files reclaimed. A missing directory sweeps to zero.
func (s *sweeper) Sweep(dir string) int {
	files := s.list(dir)
	reclaimed := 0
	var quarantined []agedFile
	cutoff := time.Time{}
	if s.retention > 0 {
		cutoff = s.clock().Add(-s.retention)
	}
	for _, f := range files {
		if !cutoff.IsZero() && f.mtime.Before(cutoff) {
			if s.reclaim(f, "older than retention") {
				reclaimed++
				continue
			}
		}
		if f.kind == KindQuarantined {
			quarantined = append(quarantined, f)
		}
	}
	if s.maxQuarantined > 0 && len(quarantined) > s.maxQuarantined {
		// quarantined inherits list's oldest-first order.
		for _, f := range quarantined[:len(quarantined)-s.maxQuarantined] {
			if s.reclaim(f, "over quarantine cap") {
				reclaimed++
			}
		}
	}
	return reclaimed
}

// Scrub re-verifies every resting checkpoint and ledger in dir and
// quarantines the ones that no longer decode — bit-rot caught before a
// resume would trip over it. Unreadable files (permissions, vanished
// mid-scrub) are skipped, not quarantined: the file may be fine next
// pass. Returns the number of files quarantined.
func (s *sweeper) Scrub(dir string) int {
	quarantined := 0
	for _, f := range s.list(dir) {
		var err error
		switch f.kind {
		case KindCheckpoint:
			_, err = ReadFileFS(s.fs, f.path)
		case KindLedger:
			_, err = ReadLedgerFileFS(s.fs, f.path)
		default:
			continue
		}
		if err == nil || !Undecodable(err) {
			continue
		}
		q, qerr := Quarantine(s.fs, f.path)
		if qerr != nil {
			s.log("storage: scrub cannot quarantine %s: %v", f.path, qerr)
			continue
		}
		s.log("storage: scrub quarantined %s %s -> %s: %v", f.kind, filepath.Base(f.path), filepath.Base(q), err)
		if s.onQuarantine != nil {
			s.onQuarantine(f.kind)
		}
		quarantined++
	}
	return quarantined
}
