package checkpoint

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/disc-mining/disc/internal/obs"
)

// TestDurabilityLatch drives the degraded-durability latch through
// scripted failures, successes and probe attempts on a fake clock.
// After every step it checks the step's own result; after the script it
// checks the latch state, the last error, and that the
// disc_storage_degraded gauge reads 0 or 1 per component (a second,
// untouched component on the same registry must stay at 0).
func TestDurabilityLatch(t *testing.T) {
	const probe = 10 * time.Second
	type step struct {
		wait time.Duration // fake-clock advance before the op
		op   string        // "attempt", "fail" or "ok"
		want bool          // attempt: write allowed; fail: latch tripped
	}
	fail := func(tripped bool) step { return step{op: "fail", want: tripped} }
	ok := step{op: "ok"}
	attempt := func(wait time.Duration, allowed bool) step {
		return step{wait: wait, op: "attempt", want: allowed}
	}
	cases := []struct {
		name         string
		degradeAfter int
		steps        []step
		wantDegraded bool
		wantFails    int
		wantLastErr  string
	}{
		{
			name:         "trips exactly at DegradeAfter",
			degradeAfter: 3,
			steps:        []step{fail(false), fail(false), attempt(0, true), fail(true), fail(false)},
			wantDegraded: true, wantFails: 4, wantLastErr: "write 5",
		},
		{
			name:         "zero selects the default of three",
			degradeAfter: 0,
			steps:        []step{fail(false), fail(false), fail(true)},
			wantDegraded: true, wantFails: 3, wantLastErr: "write 3",
		},
		{
			name:         "negative never trips",
			degradeAfter: -1,
			steps: []step{fail(false), fail(false), fail(false), fail(false), fail(false),
				attempt(0, true), fail(false)},
			wantDegraded: false, wantFails: 6, wantLastErr: "write 7",
		},
		{
			name:         "a success before the latch zeroes the count",
			degradeAfter: 3,
			steps:        []step{fail(false), fail(false), ok, fail(false), fail(false)},
			wantDegraded: false, wantFails: 2, wantLastErr: "write 5",
		},
		{
			name:         "no write is attempted between probes",
			degradeAfter: 1,
			steps: []step{fail(true),
				attempt(0, false), attempt(probe/2, false), attempt(probe/2-time.Nanosecond, false),
				attempt(time.Nanosecond, true), // the probe
				attempt(0, false), fail(false), // the probe failed: still degraded
				attempt(probe-time.Nanosecond, false), attempt(time.Nanosecond, true)},
			wantDegraded: true, wantFails: 2, wantLastErr: "write 7",
		},
		{
			name:         "a successful probe re-arms and zeroes the count",
			degradeAfter: 2,
			steps: []step{fail(false), fail(true), attempt(probe, true), ok,
				attempt(0, true), attempt(0, true), fail(false)},
			wantDegraded: false, wantFails: 1, wantLastErr: "write 7",
		},
		{
			name:         "the last error survives a re-arm",
			degradeAfter: 1,
			steps:        []step{fail(true), attempt(probe, true), ok},
			wantDegraded: false, wantFails: 0, wantLastErr: "write 1",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			d := NewDurability("jobs", KindCheckpoint, "", Policy{DegradeAfter: tc.degradeAfter, Probe: probe}, t.Logf, reg)
			NewDurability("cluster", KindLedger, "", Policy{}, t.Logf, reg)
			now := time.Unix(0, 0)
			d.now = func() time.Time { return now }
			for i, s := range tc.steps {
				now = now.Add(s.wait)
				var got bool
				switch s.op {
				case "attempt":
					got = d.Attempt()
				case "fail":
					got = d.Failed(fmt.Errorf("write %d", i+1))
				case "ok":
					d.OK()
					continue
				}
				if got != s.want {
					t.Fatalf("step %d (%s after %s) = %t, want %t", i+1, s.op, s.wait, got, s.want)
				}
			}
			st := d.State()
			if st.Degraded != tc.wantDegraded {
				t.Errorf("degraded = %t, want %t", st.Degraded, tc.wantDegraded)
			}
			if st.ConsecutiveFailures != tc.wantFails {
				t.Errorf("consecutive failures = %d, want %d", st.ConsecutiveFailures, tc.wantFails)
			}
			if got := fmt.Sprint(st.LastError); got != tc.wantLastErr || st.LastErrorAt.IsZero() {
				t.Errorf("last error = %q at %v, want %q", got, st.LastErrorAt, tc.wantLastErr)
			}
			var b strings.Builder
			if err := reg.WriteText(&b); err != nil {
				t.Fatal(err)
			}
			gauge := 0
			if tc.wantDegraded {
				gauge = 1
			}
			for _, want := range []string{
				fmt.Sprintf("disc_storage_degraded{component=\"jobs\"} %d\n", gauge),
				"disc_storage_degraded{component=\"cluster\"} 0\n",
			} {
				if !strings.Contains(b.String(), want) {
					t.Errorf("exposition missing %q", want)
				}
			}
		})
	}
}
