package main

import (
	"context"
	"fmt"
	"time"

	"mobileqoe/internal/engine"
	"mobileqoe/internal/experiments"
	"mobileqoe/internal/runner"
	"mobileqoe/internal/webpage"
)

// cold-web: one client in a closed loop on the CLI path, alternating fig3a
// (Top50 corpus) and fig7a (SportsTop20 corpus) at a fresh seed per
// request, so every request builds its corpus. Request 0 is part of set-up.

// coldWebUnits is how many requests after request 0 a run times. The
// process-wide script and profile caches make request cost fall steeply
// with request index, so a fixed count, not the time window, decides which
// requests the statistics cover: the same requests on every commit.
const coldWebUnits = 20

// recordColdWeb is how many requests have stored digests at the default
// seed; later requests are still checked for errors but not against digests.
const recordColdWeb = 64

type coldWeb struct {
	r    *run
	last map[string]uint64 // id → seed of its latest request
}

func newColdWeb(r *run) instance { return &coldWeb{r: r, last: map[string]uint64{}} }

// coldWebRequest is request k of the cold-web stream at workload seed.
func coldWebRequest(seed uint64, k int) (engine.Request, string) {
	id := "fig3a"
	if k%2 == 1 {
		id = "fig7a"
	}
	req := engine.Request{Experiment: id, Pages: 2, Seed: deriveSeed(seed, "cold-web", k)}
	return req, fmt.Sprintf("req/%d/%s/seed=%d", k, id, req.Seed)
}

func (c *coldWeb) setup() error {
	req, key := coldWebRequest(c.r.o.seed, 0)
	out, err := c.request(0, req)
	c.r.setupCheck(key, out, err)
	return nil
}

func (c *coldWeb) loop(until time.Time) float64 {
	start := time.Now()
	end := start
	for k := 1; k <= coldWebUnits && time.Now().Before(until); k++ {
		req, key := coldWebRequest(c.r.o.seed, k)
		t := time.Now()
		c.r.sample("loadgen.lag_ms.p99", ms(t.Sub(end)))
		out, err := c.request(k, req)
		end = time.Now()
		if err == nil {
			err = c.r.checkOut(key, out)
		}
		c.r.done(end.Sub(t), err)
	}
	return end.Sub(start).Seconds()
}

// request runs one request. Traced, it first builds the request's corpus
// through the webpage API, so the corpus build is timed apart from the
// simulation that follows (which then finds the corpus cached).
func (c *coldWeb) request(k int, req engine.Request) ([]byte, error) {
	r := c.r
	u := r.begin("cold-web.unit", k, -1)
	defer r.end(u)
	c.last[req.Experiment] = req.Seed
	if r.traced() {
		c.buildCorpus(req.Experiment, req.Seed, k, u)
	}
	var plan *engine.Plan
	var err error
	d := r.timed("engine.Compose", k, u, func() {
		plan, err = engine.Compose(req, engine.ComposeOptions{})
	})
	if err != nil {
		return nil, err
	}
	r.sample("engine.compose_us", us(d))
	var res []runner.Result
	r.timed("engine.ExecutePlan", k, u, func() {
		res, err = engine.ExecutePlan(context.Background(), plan, engine.ExecOpts{Parallel: parallel})
	})
	if err != nil {
		return nil, err
	}
	var out []byte
	d = r.timed("engine.RenderResults", k, u, func() { out, err = engine.RenderResults(res, false) })
	r.sample("engine.render_us", us(d))
	return out, err
}

// buildCorpus times the corpus the experiment id reads at seed.
func (c *coldWeb) buildCorpus(id string, seed uint64, k, parent int) {
	if id == "fig3a" {
		timeCorpus(c.r, "Top50", seed, k, parent)
		return
	}
	timeCorpus(c.r, "SportsTop20", seed, k, parent)
}

// timeCorpus calls webpage.Top50 or webpage.SportsTop20 as one span and
// samples the corpus and per-page build times.
func timeCorpus(r *run, kind string, seed uint64, k, parent int) []*webpage.Page {
	var pages []*webpage.Page
	name, metric := "webpage.Top50", "webpage.top50_ms"
	build := webpage.Top50
	if kind == "SportsTop20" {
		name, metric, build = "webpage.SportsTop20", "webpage.sports20_ms", webpage.SportsTop20
	}
	d := r.timed(name, k, parent, func() { pages = build(seed) })
	r.sample(metric, ms(d))
	r.sample("webpage.page_ms", ms(d)/float64(len(pages)))
	return pages
}

func (c *coldWeb) probeSeed() uint64 { return c.last["fig3a"] }

func (c *coldWeb) pages() []*webpage.Page {
	var p []*webpage.Page
	if s, ok := c.last["fig3a"]; ok {
		p = append(p, experiments.Config{Seed: s, Pages: 2}.Corpus()...)
	}
	if s, ok := c.last["fig7a"]; ok {
		p = append(p, webpage.SportsTop20(s)[:2]...)
	}
	return p
}

// coldWebOutputs renders the first n requests at the default seed.
func coldWebOutputs(n int) (map[string][]byte, error) {
	c := &coldWeb{r: &run{samples: map[string][]float64{}}, last: map[string]uint64{}}
	got := map[string][]byte{}
	for k := 0; k < n; k++ {
		req, key := coldWebRequest(defaultSeed, k)
		out, err := c.request(k, req)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", key, err)
		}
		got[key] = out
	}
	return got, nil
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
