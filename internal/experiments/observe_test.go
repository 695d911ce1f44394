package experiments_test

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"mobileqoe/internal/experiments"
	"mobileqoe/internal/trace"
)

// traceQuick is a small configuration whose fig3a run still exercises the
// whole stack: CPU scheduling, the TCP network, the browser, and the kernel.
func traceQuick() experiments.Config {
	return experiments.Config{Seed: 1, Pages: 1, ClipDuration: 5 * time.Second,
		CallDuration: 2 * time.Second, IperfDuration: time.Second}
}

// runTraced executes one fig3a trial with a fresh tracer and returns the
// tracer plus its serialized Chrome trace.
func runTraced(t *testing.T) (*trace.Tracer, []byte) {
	t.Helper()
	cfg := traceQuick()
	tr := trace.New()
	cfg.TraceFactory = func(string, int) *trace.Tracer { return tr }
	cfg.Metrics = true
	tab, err := experiments.RunTrial("fig3a", cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tab.Metrics == nil {
		t.Fatal("Config.Metrics set but Table.Metrics is nil")
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return tr, buf.Bytes()
}

// TestTraceCoversStack asserts a traced experiment emits spans or counters
// from every layer of the simulation: the event kernel, the CPU model, the
// TCP network, and the browser.
func TestTraceCoversStack(t *testing.T) {
	tr, _ := runTraced(t)
	cats := map[string]bool{}
	for _, e := range tr.Events() {
		if e.Kind != trace.KindMeta {
			cats[e.Cat] = true
		}
	}
	for _, want := range []string{"sim", "cpu", "netsim", "browser"} {
		if !cats[want] {
			t.Errorf("trace has no events from category %q (have %v)", want, cats)
		}
	}
	if len(cats) < 4 {
		t.Fatalf("trace covers %d categories, want >= 4", len(cats))
	}
}

// TestTraceByteIdentical asserts two full runs at the same seed serialize to
// exactly the same bytes — the virtual-time guarantee end to end.
func TestTraceByteIdentical(t *testing.T) {
	_, a := runTraced(t)
	_, b := runTraced(t)
	if !bytes.Equal(a, b) {
		t.Fatalf("two runs at the same seed produced different traces (%d vs %d bytes)", len(a), len(b))
	}
}

// TestMetricsRegistryContents asserts the per-trial registry carries the
// kernel and per-package series the observability layer promises.
func TestMetricsRegistryContents(t *testing.T) {
	cfg := traceQuick()
	cfg.Metrics = true
	tab, err := experiments.RunTrial("fig3a", cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	m := tab.Metrics
	if m.Counter("sim.events").Value() == 0 {
		t.Error("sim.events counter is zero")
	}
	if m.Histogram("sim.queue_depth").Count() == 0 {
		t.Error("sim.queue_depth histogram is empty")
	}
	if m.Counter("cpu.tasks").Value() == 0 {
		t.Error("cpu.tasks counter is zero")
	}
	if m.Histogram("browser.plt_ms").Count() == 0 {
		t.Error("browser.plt_ms histogram is empty")
	}
	tbl := m.Table()
	for _, want := range []string{"sim.events", "sim.queue_depth", "netsim.segments",
		"cpu.governor_transitions", "netsim.cwnd_resets"} {
		if !strings.Contains(tbl, want) {
			t.Errorf("metrics table missing %q:\n%s", want, tbl)
		}
	}
}

// TestMetricsOffNoRegistry asserts the default path stays registry-free, so
// an untraced run cannot pay observability costs.
func TestMetricsOffNoRegistry(t *testing.T) {
	tab, err := experiments.RunTrial("fig3a", traceQuick(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if tab.Metrics != nil {
		t.Fatalf("Metrics off but Table.Metrics = %v", tab.Metrics)
	}
}

// TestMergeTrialsFoldsMetrics asserts a sequential multi-trial Run merges the
// per-trial registries (counters add across trials).
func TestMergeTrialsFoldsMetrics(t *testing.T) {
	cfg := traceQuick()
	cfg.Metrics = true

	one, err := experiments.RunTrial("fig3a", cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Trials = 3
	merged, err := experiments.Run("fig3a", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if merged.Metrics == nil {
		t.Fatal("merged table has no metrics registry")
	}
	if got := merged.Metrics.Histogram("browser.plt_ms").Count(); got != 3*one.Metrics.Histogram("browser.plt_ms").Count() {
		t.Errorf("merged browser.plt_ms count = %d, want 3x the single-trial count %d",
			got, one.Metrics.Histogram("browser.plt_ms").Count())
	}
}
