package experiments_test

import (
	"bytes"
	"testing"
	"time"

	"mobileqoe/internal/experiments"
	"mobileqoe/internal/trace"
)

// Pool-safety regression tests. The sim kernel recycles event objects
// through a free list, the CPU model pools tasks, and the script engines
// return interned boxed values — three classes of object reuse that would
// each corrupt results silently if any recycled object leaked stale state
// into a later run. The strongest detector the repo has for that class of
// bug is whole-artifact determinism: run every Fig. 2 and Fig. 3 experiment
// twice in one process (first run populating every pool, second run drawing
// recycled objects from them) and require the rendered tables, the metrics
// registries, and the execution traces to agree byte for byte.

var poolSafetyIDs = []string{
	"fig2a", "fig2b", "fig2c",
	"fig3a", "fig3b", "fig3c", "fig3d",
}

func poolQuick() experiments.Config {
	return experiments.Config{Seed: 1, Pages: 1, ClipDuration: 5 * time.Second,
		CallDuration: 2 * time.Second, IperfDuration: time.Second}
}

// runArtifacts executes one trial of id and returns its three serialized
// artifacts: the rendered table, the metrics registry table, and the
// Chrome-format execution trace.
func runArtifacts(t *testing.T, id string) (table, metrics, trc []byte) {
	t.Helper()
	cfg := poolQuick()
	tr := trace.New()
	cfg.TraceFactory = func(string, int) *trace.Tracer { return tr }
	cfg.Metrics = true
	tab, err := experiments.RunTrial(id, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return []byte(tab.String()), []byte(tab.Metrics.Table()), buf.Bytes()
}

func TestPoolSafetyDoubleRunByteIdentical(t *testing.T) {
	for _, id := range poolSafetyIDs {
		id := id
		t.Run(id, func(t *testing.T) {
			tab1, met1, trc1 := runArtifacts(t, id)
			tab2, met2, trc2 := runArtifacts(t, id)
			if !bytes.Equal(tab1, tab2) {
				t.Errorf("%s: table diverged between first and second run:\n--- first ---\n%s--- second ---\n%s",
					id, tab1, tab2)
			}
			if !bytes.Equal(met1, met2) {
				t.Errorf("%s: metrics diverged between first and second run:\n--- first ---\n%s--- second ---\n%s",
					id, met1, met2)
			}
			if !bytes.Equal(trc1, trc2) {
				t.Errorf("%s: trace diverged between first and second run (%d vs %d bytes)",
					id, len(trc1), len(trc2))
			}
		})
	}
}
