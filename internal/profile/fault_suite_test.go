package profile_test

import (
	"sync/atomic"
	"testing"
	"time"

	"mobileqoe/internal/experiments"
	"mobileqoe/internal/fault"
	"mobileqoe/internal/profile"
	"mobileqoe/internal/trace"
)

// TestInvariantsHoldUnderFaultInjection reruns the invariant sweep with the
// default fault plan attached. On top of the structural rules this exercises
// the faults-recovered pairing: every "fault:<kind>" instant the injector
// emits must be covered by a "recovered:<kind>" span, i.e. no fault window
// opens without the simulation living through it and closing the books.
func TestInvariantsHoldUnderFaultInjection(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment; skipped in -short")
	}
	// Analytic experiments (closed-form tables, the regex study) build no
	// simulated system and so inject nothing; the sweep is only meaningful
	// if the plan fired somewhere, checked after all subtests finish.
	var injectedTotal atomic.Int64
	t.Cleanup(func() {
		if injectedTotal.Load() == 0 {
			t.Error("default plan injected no faults anywhere — pairing rule ran vacuously")
		}
	})
	for _, id := range experiments.IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			tr := trace.New()
			cfg := experiments.Config{Seed: 1, Pages: 1,
				ClipDuration:  5 * time.Second,
				CallDuration:  2 * time.Second,
				IperfDuration: time.Second,
				TraceFactory:  func(string, int) *trace.Tracer { return tr },
				Metrics:       true,
				Faults:        fault.Default()}
			tab, err := experiments.RunTrial(id, cfg, 0)
			if err != nil {
				t.Fatal(err)
			}
			events := tr.Events()
			for _, v := range profile.Check(events, tab.Metrics) {
				t.Errorf("%s", v)
			}
			for _, e := range events {
				if e.Cat == "fault" && e.Kind == trace.KindInstant {
					injectedTotal.Add(1)
				}
			}
		})
	}
}
