package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"runtime"
	"sort"
	"sync"
	"time"

	"mobileqoe/internal/engine"
	"mobileqoe/internal/experiments"
	"mobileqoe/internal/scenario"
	"mobileqoe/internal/webpage"
)

// serve-mix: an open loop of Poisson arrivals into an in-process engine
// sized as cmd/qoesimd's defaults (one worker, queue 8, 256-entry/64 MiB
// result cache). Latency runs from each request's due time.
const (
	serveRate  = 40.0                   // offered requests per second
	serveLimit = 250 * time.Millisecond // latency limit goodput counts against
	// Shares of arrivals; the rest are small fleet specs.
	shareHot     = 0.40  // repeats of the hot set: result-cache hits
	shareVariant = 0.585 // never-repeated scenario variants: misses
	// lagLimit marks a run invalid: the generator fell behind schedule.
	lagLimit = 100 * time.Millisecond
	// serveParallel is the engine's runner worker count: one CPU serves,
	// the other is left to the in-process load generator.
	serveParallel = 1
	// spinWindow is how long before a due time the generator stops
	// sleeping and yields instead.
	spinWindow = 1500 * time.Microsecond
	// recordServeMix is how many arrivals have stored digests at the
	// default seed.
	recordServeMix = 4800
)

// serveSeeds are the two corpus seeds serve-mix warms in set-up; every miss
// reads one of them. They are fixed, like a server's data: the workload
// seed drives the traffic, not the page weights, which would otherwise
// swing the cost of every miss with the seed.
func serveSeeds(uint64) []uint64 { return []uint64{1, 2} }

// mixRequest is one arrival's request and the key its output is checked
// under.
type mixRequest struct {
	req  engine.Request
	key  string
	kind string // "hot", "scenario" or "fleet"
}

// mixStream generates serve-mix requests in arrival order at a workload
// seed. Request i depends only on (seed, i), not on the run length.
type mixStream struct {
	rng      *rand.Rand
	hot      []mixRequest
	variants []variant
	nv, nf   int
	seeds    []uint64
}

type variant struct {
	device, network string
	cores           int // 0: the device's own
	clockMHz        float64
	seed            uint64
}

func newMixStream(seed uint64) *mixStream {
	seeds := serveSeeds(seed)
	m := &mixStream{rng: rand.New(rand.NewPCG(seed, 0x5e12e)), seeds: seeds}
	for _, dev := range scenario.DeviceNames() {
		spec, _ := scenario.DeviceSpec(dev)
		for _, f := range spec.Big.FreqTable() {
			for _, net := range []string{"lan", "lte", "3g"} {
				for _, cores := range []int{0, 2} {
					for _, s := range seeds {
						m.variants = append(m.variants, variant{dev, net, cores, f.MHz(), s})
					}
				}
			}
		}
	}
	perm := rand.New(rand.NewPCG(seed, 0xa11a5))
	perm.Shuffle(len(m.variants), func(i, j int) { m.variants[i], m.variants[j] = m.variants[j], m.variants[i] })
	// The hot set: eight scenario variants of one shape, so cache hits
	// form one latency population.
	devs := scenario.DeviceNames()
	for i := 0; i < 8; i++ {
		v := variant{device: devs[i%len(devs)], network: "lte", seed: seeds[i%2]}
		spec, _ := scenario.DeviceSpec(v.device)
		v.clockMHz = spec.Big.FreqTable()[i/len(devs)].MHz()
		m.hot = append(m.hot, mixRequest{req: v.request("hot"), kind: "hot"})
	}
	for i := range m.hot {
		m.hot[i].key = fmt.Sprintf("hot/%d", i)
	}
	return m
}

func (v variant) request(name string) engine.Request {
	config := map[string]any{"network": v.network}
	if v.cores != 0 {
		config["cores"] = v.cores
	}
	doc := map[string]any{
		"name":     name,
		"title":    "serve-mix variant",
		"device":   v.device,
		"workload": map[string]any{"kind": "page"},
		"axis":     map[string]any{"param": "clock_mhz", "values": []float64{v.clockMHz}},
		"config":   config,
	}
	b, _ := json.Marshal(doc) // a map of plain values always marshals
	return engine.Request{Scenario: b, Pages: 2, Seed: v.seed}
}

// fleetRequest is a small inline fleet spec; f makes it unique. Every
// fleet has the same shape, so fleet misses form one latency population.
func (m *mixStream) fleetRequest(f int) engine.Request {
	doc := map[string]any{
		"name":        fmt.Sprintf("mix-%d", f),
		"population":  16,
		"seed":        m.seeds[f%len(m.seeds)],
		"pages":       2,
		"device_mix":  []any{map[string]any{"device": "nexus4", "weight": 1}},
		"networks":    []any{map[string]any{"name": "lte", "weight": 1}},
		"workloads":   []any{map[string]any{"kind": "page", "weight": 1}},
		"fault_plans": []any{map[string]any{"plan": "none", "weight": 1}},
	}
	b, _ := json.Marshal(doc)
	return engine.Request{Fleet: b}
}

func (m *mixStream) next() mixRequest {
	u := m.rng.Float64()
	switch {
	case u < shareHot:
		return m.hot[m.rng.IntN(len(m.hot))]
	case u < shareHot+shareVariant:
		v := m.variants[m.nv%len(m.variants)]
		m.nv++
		return mixRequest{req: v.request("variant"), kind: "scenario",
			key: fmt.Sprintf("variant/%s/%.3f/%s/cores=%d/seed=%d", v.device, v.clockMHz, v.network, v.cores, v.seed)}
	default:
		f := m.nf
		m.nf++
		return mixRequest{req: m.fleetRequest(f), kind: "fleet", key: fmt.Sprintf("fleet/%d", f)}
	}
}

// waitUntil sleeps to just before t and yields until t: Go timers can
// wake a millisecond late, which would dominate the latency of a cache hit.
func waitUntil(t time.Time) {
	if d := time.Until(t) - spinWindow; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// arrivals draws n Poisson arrival times over [0, window): given their
// count, Poisson arrivals are uniform and independent.
func arrivals(seed uint64, n int, window time.Duration) []time.Duration {
	rng := rand.New(rand.NewPCG(seed, 0xa7717e))
	t := make([]time.Duration, n)
	for i := range t {
		t[i] = time.Duration(rng.Float64() * float64(window))
	}
	sort.Slice(t, func(i, j int) bool { return t[i] < t[j] })
	return t
}

type serveMix struct {
	r   *run
	eng *engine.Engine
	mix *mixStream
}

func newServeMix(r *run) instance { return &serveMix{r: r, mix: newMixStream(r.o.seed)} }

func (s *serveMix) setup() error {
	// One corpus seed per CPU.
	var wg sync.WaitGroup
	for _, sd := range serveSeeds(s.r.o.seed) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			timeCorpus(s.r, "Top50", sd, -1, -1)
		}()
	}
	wg.Wait()
	s.eng = engine.New(engine.Config{Tool: "perfbench", Parallel: serveParallel})
	for _, h := range s.mix.hot {
		j, err := s.eng.Run(context.Background(), h.req)
		var out []byte
		if err == nil {
			out, err = j.Output()
		}
		s.r.setupCheck(h.key, out, err)
	}
	return nil
}

func (s *serveMix) loop(until time.Time) float64 {
	defer s.eng.Close()
	r := s.r
	window := time.Until(until)
	due := arrivals(r.o.seed, int(serveRate*window.Seconds()+0.5), window)
	var wg sync.WaitGroup
	start := time.Now()
	var lastMu sync.Mutex
	last := start
	finish := func(t time.Time) {
		lastMu.Lock()
		if t.After(last) {
			last = t
		}
		lastMu.Unlock()
	}
	for i, d := range due {
		m := s.mix.next()
		at := start.Add(d)
		waitUntil(at)
		r.sample("loadgen.lag_ms.p99", ms(time.Since(at)))
		u := r.spanAt("serve-mix.unit", i, -1, at, time.Time{})
		if r.traced() {
			s.traceAhead(i, u, m)
		}
		var j *engine.Job
		var err error
		r.timed("engine.Submit", i, u, func() { j, err = s.eng.Submit(m.req) })
		submitted := time.Now()
		if err != nil {
			r.end(u)
			if errors.Is(err, engine.ErrBusy) {
				err = fmt.Errorf("arrival %d refused: %w", i, err)
			}
			r.done(time.Since(at), err)
			finish(time.Now())
			continue
		}
		if j.Cached() { // served at submission: account it here
			s.complete(i, u, m, j, at, submitted)
			finish(time.Now())
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.complete(i, u, m, j, at, submitted)
			finish(time.Now())
		}()
	}
	wg.Wait()
	if lag := p99(r.samples["loadgen.lag_ms.p99"]); lag > ms(lagLimit) {
		r.invalid(fmt.Sprintf("generator fell behind schedule: lag p99 %.1f ms > %v", lag, lagLimit))
	}
	st := s.eng.Stats()
	r.sample("engine.hit_ratio", ratio(float64(st.CacheServed), float64(st.Submitted)))
	r.sample("engine.dedup_ratio", ratio(float64(st.Deduped), float64(st.Submitted)))
	r.sample("engine.rejected", float64(st.Rejected))
	r.sample("cache.results.evictions", float64(st.CacheStats.Evictions))
	return last.Sub(start).Seconds()
}

// traceAhead times, before a traced submission, the work the engine will
// do for it in layers the engine does not expose: composing the request
// and, for a miss, fetching its (warm) corpus.
func (s *serveMix) traceAhead(i, u int, m mixRequest) {
	r := s.r
	d := r.timed("engine.Compose", i, u, func() { _, _ = engine.Compose(m.req, engine.ComposeOptions{}) })
	r.sample("engine.compose_us", us(d))
	switch m.kind {
	case "scenario":
		r.timed("webpage.Top50", i, u, func() { webpage.Top50(m.req.Seed) })
	case "fleet":
		for _, sd := range s.mix.seeds {
			r.timed("webpage.Top50", i, u, func() { webpage.Top50(sd) })
		}
	}
}

// complete waits for one job, checks its output and accounts the request.
func (s *serveMix) complete(i, u int, m mixRequest, j *engine.Job, at, submitted time.Time) {
	r := s.r
	w := r.begin("engine.Wait", i, u)
	err := j.Wait(context.Background())
	r.end(w)
	r.end(u)
	lat := time.Since(at)
	var out []byte
	if err == nil {
		out, err = j.Output()
	}
	if err == nil {
		err = r.checkOut(m.key, out)
	}
	if err == nil && !j.Cached() {
		st := j.Snapshot()
		wait := ms(time.Since(submitted)) - st.WallMS
		r.sample("engine.queue_wait_ms.p50", wait)
		r.sample("engine.queue_wait_ms.tail", wait)
		r.sample("engine.run_ms.p50", st.WallMS)
		r.sample(m.kind+".miss_ms.p50", st.WallMS)
	}
	r.done(lat, err)
}

func (s *serveMix) probeSeed() uint64 { return serveSeeds(s.r.o.seed)[0] }

func (s *serveMix) pages() []*webpage.Page {
	return experiments.Config{Seed: serveSeeds(s.r.o.seed)[0], Pages: 2}.Corpus()
}

// serveMixOutputs renders the hot set and the first n arrivals at the
// default seed, one request at a time.
func serveMixOutputs(n int) (map[string][]byte, error) {
	eng := engine.New(engine.Config{Tool: "perfbench", Parallel: serveParallel})
	defer eng.Close()
	mix := newMixStream(defaultSeed)
	got := map[string][]byte{}
	add := func(m mixRequest) error {
		if _, ok := got[m.key]; ok {
			return nil
		}
		j, err := eng.Run(context.Background(), m.req)
		if err != nil {
			return fmt.Errorf("%s: %w", m.key, err)
		}
		out, err := j.Output()
		if err != nil {
			return err
		}
		got[m.key] = out
		return nil
	}
	for _, h := range mix.hot {
		if err := add(h); err != nil {
			return nil, err
		}
	}
	for i := 0; i < n; i++ {
		if err := add(mix.next()); err != nil {
			return nil, err
		}
	}
	return got, nil
}
