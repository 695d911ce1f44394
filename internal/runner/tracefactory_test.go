package runner_test

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"mobileqoe/internal/experiments"
	"mobileqoe/internal/runner"
	"mobileqoe/internal/trace"
)

// tracerSink collects per-(experiment, trial) tracers handed out by a
// Config.TraceFactory. Safe for concurrent use, as the factory contract
// requires.
type tracerSink struct {
	mu  sync.Mutex
	out map[string]map[int]*trace.Tracer
}

func newTracerSink() *tracerSink {
	return &tracerSink{out: map[string]map[int]*trace.Tracer{}}
}

func (s *tracerSink) factory(id string, trial int) *trace.Tracer {
	s.mu.Lock()
	defer s.mu.Unlock()
	tr := trace.New()
	if s.out[id] == nil {
		s.out[id] = map[int]*trace.Tracer{}
	}
	s.out[id][trial] = tr
	return tr
}

func (s *tracerSink) serialized(t *testing.T, id string, trial int) []byte {
	t.Helper()
	s.mu.Lock()
	tr := s.out[id][trial]
	s.mu.Unlock()
	if tr == nil {
		t.Fatalf("no tracer recorded for %s trial %d", id, trial)
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestTraceFactoryPerTrialTracesMatchSequential runs a multi-trial experiment
// once sequentially and once on the parallel worker pool, with a fresh tracer
// per (experiment, trial) cell, and asserts every per-trial trace serializes
// to the same bytes either way. This is the property that lets qoesim -trace
// keep -parallel > 1: each trial owns its tracer, so scheduling order cannot
// leak into any trace.
func TestTraceFactoryPerTrialTracesMatchSequential(t *testing.T) {
	const trials = 3
	cfg := experiments.Config{Seed: 1, Pages: 1, ClipDuration: 5 * time.Second,
		CallDuration: 2 * time.Second, IperfDuration: time.Second, Trials: trials}

	seq := newTracerSink()
	seqCfg := cfg
	seqCfg.TraceFactory = seq.factory
	if _, err := experiments.Run("fig3a", seqCfg); err != nil {
		t.Fatal(err)
	}

	par := newTracerSink()
	parCfg := cfg
	parCfg.TraceFactory = par.factory
	res, err := runner.Run(context.Background(), []string{"fig3a"}, parCfg,
		runner.Options{Parallel: trials})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Err != nil {
		t.Fatal(res[0].Err)
	}

	for trial := 0; trial < trials; trial++ {
		a := seq.serialized(t, "fig3a", trial)
		b := par.serialized(t, "fig3a", trial)
		if !bytes.Equal(a, b) {
			t.Errorf("trial %d: parallel trace differs from sequential (%d vs %d bytes)",
				trial, len(b), len(a))
		}
		if len(a) == 0 {
			t.Errorf("trial %d: empty trace", trial)
		}
	}
	// Distinct trials run distinct seeds, so their traces must differ.
	if bytes.Equal(seq.serialized(t, "fig3a", 0), seq.serialized(t, "fig3a", 1)) {
		t.Error("trials 0 and 1 produced identical traces; per-trial seeds not applied")
	}
}

// TestTracesCombinedMatchesSharedTracer pins the collector qoesim builds its
// one trace file from: per-attempt tracers on four workers, appended in cell
// order, export the same bytes as one tracer shared by a sequential run. A
// flaky attempt 0 emits its full trace before failing, so the retried cells
// check that failed attempts land in the combined trace, in attempt order.
func TestTracesCombinedMatchesSharedTracer(t *testing.T) {
	restore := runner.SetCellFn(func(id string, cfg experiments.Config, trial, attempt int) (*experiments.Table, error) {
		tab, err := experiments.RunTrialAttempt(id, cfg, trial, attempt)
		if err == nil && trial == 1 && attempt == 0 {
			return nil, errors.New("flaky first attempt")
		}
		return tab, err
	})
	defer restore()
	ids := []string{"fig3d", "abl-hwdecoder"}
	const trials = 3
	cfg := quick()
	cfg.Trials = trials

	run := func(factory func(string, int) *trace.Tracer, parallel int) (retried int) {
		c := cfg
		c.TraceFactory = factory
		res, err := runner.Run(context.Background(), ids, c, runner.Options{
			Parallel: parallel, Retries: 1,
			Stream: func(ev runner.Event) {
				if ev.Attempt > 0 {
					retried++
				}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range res {
			if r.Err != nil {
				t.Fatal(r.Err)
			}
		}
		return retried
	}
	shared := trace.New()
	if n := run(func(string, int) *trace.Tracer { return shared }, 1); n != len(ids) {
		t.Fatalf("%d cells retried, want %d (one per experiment)", n, len(ids))
	}
	col := runner.NewTraces()
	run(col.Factory, 4)

	var want, got bytes.Buffer
	if err := shared.WriteJSON(&want); err != nil {
		t.Fatal(err)
	}
	if err := col.Combined(ids, trials).WriteJSON(&got); err != nil {
		t.Fatal(err)
	}
	if shared.Len() == 0 {
		t.Fatal("shared tracer is empty")
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("combined trace differs from the shared sequential one (%d vs %d bytes)",
			got.Len(), want.Len())
	}
}
