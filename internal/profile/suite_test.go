package profile_test

import (
	"testing"
	"time"

	"mobileqoe/internal/experiments"
	"mobileqoe/internal/profile"
	"mobileqoe/internal/trace"
)

// TestInvariantsHoldAcrossSuite runs the default invariant rule set over a
// traced trial of every registered experiment. The rules encode what the
// simulation guarantees by construction (execution lanes serialize, the video
// buffer never goes negative, trace stalls match the metrics counter), so any
// violation here is a simulator bug surfaced by observability — exactly what
// the checker exists to catch.
func TestInvariantsHoldAcrossSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment; skipped in -short")
	}
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
				Metrics:       true}
			tab, err := experiments.RunTrial(id, cfg, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range profile.Check(tr.Events(), tab.Metrics) {
				t.Errorf("%s", v)
			}
		})
	}
}
