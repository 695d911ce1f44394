package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"mobileqoe/internal/engine"
	"mobileqoe/internal/experiments"
	"mobileqoe/internal/runner"
	"mobileqoe/internal/webpage"
)

// warm-figures: a closed loop of sweeps. One sweep is one runner.Run of
// five figures at the reduced configuration of bench_test.go, two trials,
// on two workers. Corpora and the first sweep are set-up.

// parallel is the runner worker count: sized for a two-CPU host.
const parallel = 2

// sweepIDs run longest first: the runner hands the two long fig4a cells
// out first and the short cells fill in behind them on both workers. In
// the paper's order the median sweep time moved by about 20 % between
// seeds on a 2-CPU host; in this order by about 7 %.
var sweepIDs = []string{"fig4a", "fig6", "fig3a", "fig5a", "fig7c"}

func sweepConfig(seed uint64) experiments.Config {
	return experiments.Config{
		Seed:          seed,
		Pages:         2,
		ClipDuration:  20 * time.Second,
		CallDuration:  10 * time.Second,
		IperfDuration: time.Second,
		Trials:        2,
	}
}

type warmFigures struct {
	r    *run
	seed uint64
	unit string // span name of one sweep
}

func newWarmFigures(r *run) instance {
	return &warmFigures{r: r, seed: deriveSeed(r.o.seed, "warm-figures", 0), unit: "warm-figures.unit"}
}

func (w *warmFigures) key() string { return fmt.Sprintf("sweep/seed=%d", w.seed) }

// buildCorpora builds the corpora both trials read, one trial per CPU.
func (w *warmFigures) buildCorpora(parent int) {
	var wg sync.WaitGroup
	for t := 0; t < 2; t++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := experiments.TrialSeed(w.seed, t)
			timeCorpus(w.r, "Top50", s, -1, parent)
			timeCorpus(w.r, "SportsTop20", s, -1, parent)
		}()
	}
	wg.Wait()
}

func (w *warmFigures) setup() error {
	w.buildCorpora(-1)
	out, err := w.sweep(-1)
	w.r.setupCheck(w.key(), out, err)
	return nil
}

func (w *warmFigures) loop(until time.Time) float64 {
	start := time.Now()
	end := start
	for k := 0; time.Now().Before(until); k++ {
		t := time.Now()
		w.r.sample("loadgen.lag_ms.p99", ms(t.Sub(end)))
		out, err := w.sweep(k)
		end = time.Now()
		if err == nil {
			err = w.r.checkOut(w.key(), out)
		}
		w.r.done(end.Sub(t), err)
	}
	return end.Sub(start).Seconds()
}

// sweep runs and renders one sweep as unit k (-1: set-up). Traced, the
// corpora are fetched first through the webpage API, timing what the sweep
// spends on them, and the runner's per-cell events and per-trial metrics
// registries give the simulator's layer metrics.
func (w *warmFigures) sweep(k int) ([]byte, error) {
	r := w.r
	u := r.begin(w.unit, k, -1)
	defer r.end(u)
	if r.traced() && k >= 0 {
		for t := 0; t < 2; t++ {
			s := experiments.TrialSeed(w.seed, t)
			r.timed("webpage.Top50", k, u, func() { webpage.Top50(s) })
			r.timed("webpage.SportsTop20", k, u, func() { webpage.SportsTop20(s) })
		}
	}
	cfg := sweepConfig(w.seed)
	cfg.Metrics = r.traced()
	opts := runner.Options{Parallel: parallel}
	run := r.begin("runner.Run", k, u)
	cellMS := map[string]float64{}
	var busy time.Duration
	if r.traced() {
		opts.Progress = func(ev runner.Event) {
			end := time.Now()
			r.spanAt("experiments."+ev.ID, k, run, end.Add(-ev.Elapsed), end)
			cellMS[ev.ID] += ms(ev.Elapsed)
			busy += ev.Elapsed
		}
	}
	t := time.Now()
	res, err := runner.Run(context.Background(), sweepIDs, cfg, opts)
	wall := time.Since(t)
	r.end(run)
	if err != nil {
		return nil, err
	}
	for _, x := range res {
		if x.Err != nil {
			return nil, fmt.Errorf("%s: %w", x.ID, x.Err)
		}
	}
	var out []byte
	d := r.timed("engine.RenderResults", k, u, func() { out, err = engine.RenderResults(res, false) })
	r.sample("engine.render_us", us(d))
	if r.traced() && k >= 0 {
		sweepLayers(r, res, cellMS, busy, wall)
	}
	return out, err
}

func (w *warmFigures) probeSeed() uint64 { return experiments.TrialSeed(w.seed, 0) }

func (w *warmFigures) pages() []*webpage.Page {
	s := experiments.TrialSeed(w.seed, 0)
	return append(experiments.Config{Seed: s, Pages: 2}.Corpus(), webpage.SportsTop20(s)[:2]...)
}

// warmFiguresOutputs renders the sweep at the default seed.
func warmFiguresOutputs() (map[string][]byte, error) {
	w := &warmFigures{r: &run{samples: map[string][]float64{}}, seed: deriveSeed(defaultSeed, "warm-figures", 0), unit: "record.sweep"}
	out, err := w.sweep(-1)
	if err != nil {
		return nil, err
	}
	return map[string][]byte{w.key(): out}, nil
}
