// Degraded durability and storage hygiene for one component's
// durable-state directory. The jobs manager (checkpoints) and the
// cluster coordinator (shard ledgers) both route their writes through a
// Durability latch, quarantine undecodable files through it, and run
// its scrub+sweep GC over their directory; the metric families it feeds
// are shared, labelled by component and kind.
package checkpoint

import (
	"sync"
	"time"

	"github.com/disc-mining/disc/internal/obs"
)

// maxQuarantined caps *.corrupt files kept per directory: enough to
// diagnose a corruption episode, bounded so a flapping disk cannot fill
// the volume with evidence.
const maxQuarantined = 32

// Policy is how a durable-state directory reacts to write failures and
// ages out files. Zero fields select the defaults noted on each.
type Policy struct {
	// FS carries writes, removals and quarantine renames (nil = OS).
	FS FS
	// DegradeAfter is how many consecutive write failures latch
	// degraded mode (0 = 3; negative never latches).
	DegradeAfter int
	// Probe is how often a degraded latch lets one write through to
	// test whether the disk recovered (<= 0 = 15s).
	Probe time.Duration
	// Retention is the age past which GC reclaims files (0 = keep
	// forever).
	Retention time.Duration
	// Keep vetoes GC of a live file (nil keeps nothing extra).
	Keep func(path string) bool
}

// Durability is one component's durable-state plane: the
// degraded-durability latch its writes pass through, quarantine of
// undecodable files, and the retention GC and resting-file scrub of its
// directory.
//
// The latch: DegradeAfter consecutive write failures switch the
// component into degraded mode. The component keeps working — mining
// stays byte-identical — but Attempt refuses writes except one probe
// every Probe interval, and the first success re-arms full durability.
// The disc_storage_degraded{component} gauge reads the latch.
type Durability struct {
	component string // gauge label and log prefix: "jobs", "cluster"
	kind      string // what the component writes: KindCheckpoint, KindLedger
	dir       string
	fs        FS
	after     int
	probe     time.Duration
	logf      func(format string, args ...any)
	reg       *obs.Registry
	sweeper   *sweeper
	now       func() time.Time

	// mu is a leaf lock — never held while calling into the registry or
	// logging — because the gauge reads the latch at render time.
	mu          sync.Mutex
	consecFails int
	degraded    bool
	lastProbe   time.Time
	lastErr     error
	lastErrAt   time.Time
}

// NewDurability builds the plane for component over dir, where it
// writes files of kind ("" dir: the latch works, GC has nothing to
// collect). It registers the degraded gauge and the quarantine counter
// for kind in reg eagerly, so a fresh scrape already shows them.
func NewDurability(component, kind, dir string, p Policy, logf func(string, ...any), reg *obs.Registry) *Durability {
	if p.DegradeAfter == 0 {
		p.DegradeAfter = 3
	}
	if p.Probe <= 0 {
		p.Probe = 15 * time.Second
	}
	if logf == nil {
		logf = func(string, ...any) {}
	}
	d := &Durability{component: component, kind: kind, dir: dir, fs: orOS(p.FS),
		after: p.DegradeAfter, probe: p.Probe, logf: logf, reg: reg, now: time.Now}
	d.quarantined(kind)
	reg.GaugeFunc("disc_storage_degraded",
		"1 while durability is degraded (checkpoint writes suspended after repeated failures), by component.",
		func() float64 {
			if d.State().Degraded {
				return 1
			}
			return 0
		}, obs.Label{Key: "component", Value: component})
	d.sweeper = &sweeper{
		fs:             d.fs,
		retention:      p.Retention,
		maxQuarantined: maxQuarantined,
		keep:           p.Keep,
		logf:           logf,
		onReclaim: func(kind string, files int, bytes int64) {
			reg.Counter("disc_storage_reclaimed_files_total",
				"Durable-state files reclaimed by retention GC, by kind.",
				obs.Label{Key: "kind", Value: kind}).Add(int64(files))
			reg.Counter("disc_storage_reclaimed_bytes_total",
				"Bytes reclaimed by retention GC, by kind.",
				obs.Label{Key: "kind", Value: kind}).Add(bytes)
		},
		onQuarantine: func(kind string) { d.quarantined(kind).Inc() },
	}
	return d
}

func (d *Durability) quarantined(kind string) *obs.Counter {
	return d.reg.Counter("disc_storage_quarantined_total",
		"Durable-state files quarantined after failing CRC or decode verification, by kind.",
		obs.Label{Key: "kind", Value: kind})
}

// Attempt reports whether a write should be tried now: always while
// healthy, and only once per Probe interval while degraded.
func (d *Durability) Attempt() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.degraded {
		return true
	}
	if d.now().Sub(d.lastProbe) < d.probe {
		return false
	}
	d.lastProbe = d.now()
	return true
}

// Failed records one failed write and reports whether it tripped the
// latch (the DegradeAfter-th consecutive failure).
func (d *Durability) Failed(err error) bool {
	d.mu.Lock()
	d.consecFails++
	d.lastErr = err
	d.lastErrAt = d.now()
	trip := !d.degraded && d.after > 0 && d.consecFails >= d.after
	if trip {
		d.degraded = true
		d.lastProbe = d.now()
	}
	n := d.consecFails
	d.mu.Unlock()
	if trip {
		d.logf("%s: %s durability degraded after %d consecutive write failures; mining continues, probing every %s",
			d.component, d.kind, n, d.probe)
	}
	return trip
}

// OK records one successful write, re-arming durability if it was
// degraded.
func (d *Durability) OK() {
	d.mu.Lock()
	rearmed := d.degraded
	d.degraded = false
	d.consecFails = 0
	d.mu.Unlock()
	if rearmed {
		d.logf("%s: %s durability re-armed, writes succeeding again", d.component, d.kind)
	}
}

// LatchState is a snapshot of the latch: whether it is set, the current
// run of failures, and the most recent failure (kept across re-arms).
type LatchState struct {
	Degraded            bool
	ConsecutiveFailures int
	LastError           error
	LastErrorAt         time.Time
}

// State snapshots the latch.
func (d *Durability) State() LatchState {
	d.mu.Lock()
	defer d.mu.Unlock()
	return LatchState{Degraded: d.degraded, ConsecutiveFailures: d.consecFails,
		LastError: d.lastErr, LastErrorAt: d.lastErrAt}
}

// Quarantine sets aside the undecodable file at path (see the
// package-level Quarantine), counting it by kind and logging why. A
// failed rename is logged and leaves the file where it is.
func (d *Durability) Quarantine(path string, why error) {
	kind := kindOf(path)
	q, err := Quarantine(d.fs, path)
	if err != nil {
		d.logf("%s: cannot quarantine %s %s: %v (reason: %v)", d.component, kind, path, err, why)
		return
	}
	d.quarantined(kind).Inc()
	d.logf("%s: quarantined %s %s to %s: %v", d.component, kind, path, q, why)
}

// Quarantined reports how many files of the component's own kind have
// been quarantined, by Quarantine or by the scrub.
func (d *Durability) Quarantined() int64 { return d.quarantined(d.kind).Value() }

// StartGC runs one scrub+sweep pass over the directory now and, when
// interval is positive, another every interval in the background. The
// scrub quarantines resting files that no longer decode — bit-rot
// caught before a resume trips over it — and the sweep reclaims files
// past retention. The returned stop ends the loop and waits for it to
// exit; it is idempotent. Without a directory there is nothing to do.
func (d *Durability) StartGC(interval time.Duration) (stop func()) {
	if d.dir == "" {
		return func() {}
	}
	d.gc()
	if interval <= 0 {
		return func() {}
	}
	quit := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				d.gc()
			case <-quit:
				return
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() { close(quit) })
		<-done
	}
}

func (d *Durability) gc() {
	d.sweeper.Scrub(d.dir)
	d.sweeper.Sweep(d.dir)
}
