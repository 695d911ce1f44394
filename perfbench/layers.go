package main

import (
	"context"
	"fmt"
	"time"

	"mobileqoe/internal/browser"
	"mobileqoe/internal/core"
	"mobileqoe/internal/cpu"
	"mobileqoe/internal/device"
	"mobileqoe/internal/engine"
	"mobileqoe/internal/rex"
	"mobileqoe/internal/runner"
	"mobileqoe/internal/scenario"
	"mobileqoe/internal/script"
	"mobileqoe/internal/sim"
	"mobileqoe/internal/telephony"
	"mobileqoe/internal/video"
	"mobileqoe/internal/webpage"
)

// metricName is a reported metric's name and unit.
type metricName struct{ name, unit string }

// layerMetrics are the per-layer metrics the traced mode reports; the same
// list, in the same order, is BENCHMARK.json's per_layer.
var layerMetrics = []metricName{
	// Corpus build.
	{"webpage.top50_ms", "ms"},
	{"webpage.sports20_ms", "ms"},
	{"webpage.page_ms", "ms"},
	{"script.parse_ms_per_page", "ms"},
	{"script.ops_per_page", "count"},
	{"script.ns_per_op", "ns"},
	{"rex.calls_per_page", "count"},
	{"rex.compile_us", "us"},
	{"rex.pike.steps_per_page", "count"},
	{"rex.pike.ns_per_step", "ns"},
	{"rex.bt.steps_per_page", "count"},
	{"rex.bt.ns_per_step", "ns"},
	{"cache.corpus.hit_ratio", "ratio"},
	{"cache.corpus.evictions", "count"},
	{"cache.programs.hit_ratio", "ratio"},
	{"attr.corpus_share", "ratio"},
	// Simulator.
	{"experiments.fig3a.ms", "ms"},
	{"experiments.fig4a.ms", "ms"},
	{"experiments.fig5a.ms", "ms"},
	{"experiments.fig6.ms", "ms"},
	{"experiments.fig7c.ms", "ms"},
	{"runner.busy_ratio", "ratio"},
	{"sim.events", "count"},
	{"cpu.tasks", "count"},
	{"netsim.segments", "count"},
	{"browser.loads", "count"},
	{"sim.host_ns_per_event", "ns"},
	{"browser.load_ms", "ms"},
	{"video.stream_ms", "ms"},
	{"telephony.call_ms", "ms"},
	{"netsim.iperf_ms", "ms"},
	{"netsim.host_ns_per_segment", "ns"},
	{"wprof.analyze_us", "us"},
	{"cpu.host_ns_per_task", "ns"},
	{"alloc.bytes_per_unit", "B"},
	{"alloc.objects_per_unit", "count"},
	{"gc.cycles_per_unit", "count"},
	// Serving.
	{"engine.compose_us", "us"},
	{"engine.render_us", "us"},
	{"engine.queue_wait_ms.p50", "ms"},
	{"engine.queue_wait_ms.tail", "ms"},
	{"engine.run_ms.p50", "ms"},
	{"engine.hit_ratio", "ratio"},
	{"engine.dedup_ratio", "ratio"},
	{"engine.rejected", "count"},
	{"cache.results.evictions", "count"},
	{"scenario.miss_ms.p50", "ms"},
	{"fleet.miss_ms.p50", "ms"},
	// Benchmark and generator overhead.
	{"loadgen.lag_ms.p99", "ms"},
	{"trace.overhead_ratio", "ratio"},
}

// probeLayers runs, after a traced workload, the layer probes: calls into
// each layer's public API on the workload's own pages and corpus seed. The
// simulator and serving probes run only where the workload did not
// exercise those layers itself.
func probeLayers(r *run, inst instance) {
	seed := inst.probeSeed()
	if !r.has("experiments.fig3a.ms") {
		w := &warmFigures{r: r, seed: seed, unit: "probe.sweep"}
		w.buildCorpora(-1)
		if _, err := w.sweep(0); err != nil {
			r.invalid(fmt.Sprintf("probe sweep: %v", err))
		}
	}
	probeEngine(r, seed)
	pages := inst.pages()
	probeScripts(r, pages)
	probeSystems(r, pages[0])
	probeCPU(r)
}

// sweepLayers samples the simulator metrics of one traced sweep: per-figure
// cell time, worker busy share, and the exact per-sweep counts from the
// trials' metrics registries.
func sweepLayers(r *run, res []runner.Result, cellMS map[string]float64, busy, wall time.Duration) {
	for _, id := range sweepIDs {
		r.sample("experiments."+id+".ms", cellMS[id])
	}
	r.sample("runner.busy_ratio", ratio(float64(busy), float64(wall)*parallel))
	var events, tasks, segs, loads, cycles, cycleN float64
	for _, x := range res {
		m := x.Table.Metrics
		events += m.LookupCounter("sim.events").Value()
		tasks += m.LookupCounter("cpu.tasks").Value()
		segs += m.LookupCounter("netsim.segments").Value()
		loads += float64(m.LookupHistogram("browser.plt_ms").Count())
		if h := m.LookupHistogram("cpu.task_cycles"); h != nil {
			cycles += h.Sum()
			cycleN += float64(h.Count())
		}
	}
	r.sample("sim.events", events)
	r.sample("cpu.tasks", tasks)
	r.sample("netsim.segments", segs)
	r.sample("browser.loads", loads)
	r.sample("sim.host_ns_per_event", ratio(float64(busy), events))
	r.sample("cpu.task_cycles_mean", ratio(cycles, cycleN))
}

// engineMetrics are the serving metrics probeEngine can supply.
var engineMetrics = []string{
	"engine.compose_us", "engine.render_us", "engine.queue_wait_ms.p50",
	"engine.queue_wait_ms.tail", "engine.run_ms.p50", "engine.hit_ratio",
	"engine.dedup_ratio", "engine.rejected", "cache.results.evictions",
	"scenario.miss_ms.p50", "fleet.miss_ms.p50",
}

// probeEngine sends a small burst through a fresh engine: four distinct
// scenario misses, a duplicate of each while it is live, one fleet, then
// the four again as result-cache hits. It samples only the serving metrics
// the workload's own traffic left without samples.
func probeEngine(r *run, seed uint64) {
	missing := map[string]bool{}
	for _, m := range engineMetrics {
		if !r.has(m) {
			missing[m] = true
		}
	}
	if len(missing) == 0 {
		return
	}
	sample := func(name string, v float64) {
		if missing[name] {
			r.sample(name, v)
		}
	}
	eng := engine.New(engine.Config{Tool: "perfbench", Parallel: serveParallel})
	defer eng.Close()
	mix := &mixStream{seeds: []uint64{seed}}
	var reqs []mixRequest
	for i, dev := range []string{"nexus4", "pixel2", "intex", "s6edge"} {
		v := variant{device: dev, network: "lte", clockMHz: clockOf(dev, i), seed: seed}
		reqs = append(reqs, mixRequest{req: v.request("probe"), kind: "scenario"})
	}
	var plan *engine.Plan
	var err error
	d := r.timed("engine.Compose", -1, -1, func() { plan, err = engine.Compose(reqs[0].req, engine.ComposeOptions{}) })
	sample("engine.compose_us", us(d))
	if err == nil {
		res, err := engine.ExecutePlan(context.Background(), plan, engine.ExecOpts{Parallel: serveParallel})
		if err == nil {
			d = r.timed("engine.RenderResults", -1, -1, func() { _, _ = engine.RenderResults(res, false) })
			sample("engine.render_us", us(d))
		}
	}
	burst := append(append([]mixRequest{}, reqs...), reqs...)
	burst = append(burst, mixRequest{req: mix.fleetRequest(0), kind: "fleet"})
	type sub struct {
		m  mixRequest
		j  *engine.Job
		at time.Time
	}
	var subs []sub
	for _, m := range burst {
		j, err := eng.Submit(m.req)
		if err != nil {
			r.invalid(fmt.Sprintf("engine probe: %v", err))
			return
		}
		subs = append(subs, sub{m, j, time.Now()})
	}
	seen := map[*engine.Job]bool{}
	for _, s := range subs {
		if err := s.j.Wait(context.Background()); err != nil {
			r.invalid(fmt.Sprintf("engine probe: %v", err))
			return
		}
		if seen[s.j] { // a duplicate attached to a live job
			continue
		}
		seen[s.j] = true
		st := s.j.Snapshot()
		wait := ms(time.Since(s.at)) - st.WallMS
		sample("engine.queue_wait_ms.p50", wait)
		sample("engine.queue_wait_ms.tail", wait)
		sample("engine.run_ms.p50", st.WallMS)
		sample(s.m.kind+".miss_ms.p50", st.WallMS)
	}
	for _, m := range reqs {
		if _, err := eng.Run(context.Background(), m.req); err != nil {
			r.invalid(fmt.Sprintf("engine probe: %v", err))
			return
		}
	}
	st := eng.Stats()
	sample("engine.hit_ratio", ratio(float64(st.CacheServed), float64(st.Submitted)))
	sample("engine.dedup_ratio", ratio(float64(st.Deduped), float64(st.Submitted)))
	sample("engine.rejected", float64(st.Rejected))
	sample("cache.results.evictions", float64(st.CacheStats.Evictions))
}

func clockOf(dev string, i int) float64 {
	spec, _ := scenario.DeviceSpec(dev)
	t := spec.Big.FreqTable()
	return t[i%len(t)].MHz()
}

// Recorded regex traffic of one script run.
type regexCall struct {
	pattern, input string
	matched        bool
	start, end     int
}

// recordingHost answers regexes with the Pike VM and records each call.
type recordingHost struct {
	calls []regexCall
	progs map[string]*rex.Prog
}

func (h *recordingHost) ExecRegex(pattern, input string) (bool, int, int, error) {
	p, ok := h.progs[pattern]
	if !ok {
		var err error
		if p, err = rex.Compile(pattern); err != nil {
			return false, 0, 0, err
		}
		h.progs[pattern] = p
	}
	res := p.Run(input)
	h.calls = append(h.calls, regexCall{pattern, input, res.Matched, res.Start, res.End})
	return res.Matched, res.Start, res.End, nil
}

// replayHost returns recorded answers in order, so a replayed run costs
// the interpreter alone.
type replayHost struct {
	calls []regexCall
	next  int
}

func (h *replayHost) ExecRegex(pattern, input string) (bool, int, int, error) {
	if h.next >= len(h.calls) || h.calls[h.next].pattern != pattern {
		return false, 0, 0, fmt.Errorf("replay diverged at call %d", h.next)
	}
	c := h.calls[h.next]
	h.next++
	return c.matched, c.start, c.end, nil
}

// probeScripts replays the pages' scripts: Parse, then Interp.Run against
// recorded regex answers, then every recorded (pattern, input) pair through
// rex.Compile, Prog.Run and Prog.RunBacktrack. Three passes; each metric is
// the median pass.
func probeScripts(r *run, pages []*webpage.Page) {
	type rec struct {
		prog  *script.Program
		calls []regexCall
	}
	var scripts []rec
	for _, pg := range pages {
		for _, res := range pg.Resources {
			if res.Type != webpage.JS {
				continue
			}
			prog, err := script.Parse(res.ScriptSrc)
			if err != nil {
				r.invalid(fmt.Sprintf("script probe: %v", err))
				return
			}
			h := &recordingHost{progs: map[string]*rex.Prog{}}
			if err := script.New(script.Config{Host: h}).Run(prog); err != nil {
				r.invalid(fmt.Sprintf("script probe: %v", err))
				return
			}
			scripts = append(scripts, rec{prog, h.calls})
		}
	}
	n := float64(len(pages))
	for pass := 0; pass < 3; pass++ {
		var parse, run, comp, pike, bt time.Duration
		var ops, calls, pikeSteps, btSteps float64
		for i, pg := range pages {
			for _, res := range pg.Resources {
				if res.Type != webpage.JS {
					continue
				}
				parse += r.timed("script.Parse", i, -1, func() { _, _ = script.Parse(res.ScriptSrc) })
			}
		}
		for i, s := range scripts {
			in := script.New(script.Config{Host: &replayHost{calls: s.calls}})
			var err error
			run += r.timed("script.Run", i, -1, func() { err = in.Run(s.prog) })
			if err != nil {
				r.invalid(fmt.Sprintf("script replay: %v", err))
				return
			}
			ops += float64(in.Stats().Ops)
			progs := make([]*rex.Prog, len(s.calls))
			comp += r.timed("rex.Compile", i, -1, func() {
				for k, c := range s.calls {
					progs[k], _ = rex.Compile(c.pattern)
				}
			})
			pike += r.timed("rex.Run", i, -1, func() {
				for k, c := range s.calls {
					pikeSteps += float64(progs[k].Run(c.input).Steps)
				}
			})
			bt += r.timed("rex.RunBacktrack", i, -1, func() {
				for k, c := range s.calls {
					res, _ := progs[k].RunBacktrack(c.input, 0)
					btSteps += float64(res.Steps)
				}
			})
			calls += float64(len(s.calls))
		}
		r.sample("script.parse_ms_per_page", ms(parse)/n)
		r.sample("script.ops_per_page", ops/n)
		r.sample("script.ns_per_op", ratio(float64(run), ops))
		r.sample("rex.calls_per_page", calls/n)
		r.sample("rex.compile_us", ratio(us(comp), calls))
		r.sample("rex.pike.steps_per_page", pikeSteps/n)
		r.sample("rex.pike.ns_per_step", ratio(float64(pike), pikeSteps))
		r.sample("rex.bt.steps_per_page", btSteps/n)
		r.sample("rex.bt.ns_per_step", ratio(float64(bt), btSteps))
	}
}

// probeSystems runs each core.System workload on the Nexus 4 the sweep's
// clock figures use: a page load and its WProf analysis, a 20 s clip, a
// 10 s call and a 1 s iperf, three times each.
func probeSystems(r *run, page *webpage.Page) {
	for i := 0; i < 3; i++ {
		sys := core.NewSystem(device.Nexus4())
		var res browser.Result
		r.sample("browser.load_ms", ms(r.timed("core.LoadPage", i, -1, func() { res = sys.LoadPage(page) })))
		r.sample("wprof.analyze_us", us(r.timed("core.Analyze", i, -1, func() { sys.Analyze(res) })))
		sys = core.NewSystem(device.Nexus4())
		r.sample("video.stream_ms", ms(r.timed("core.StreamVideo", i, -1, func() {
			sys.StreamVideo(video.StreamConfig{Duration: 20 * time.Second})
		})))
		sys = core.NewSystem(device.Nexus4())
		r.sample("telephony.call_ms", ms(r.timed("core.PlaceCall", i, -1, func() {
			sys.PlaceCall(telephony.CallConfig{Duration: 10 * time.Second})
		})))
		sys = core.NewSystem(device.Nexus4())
		d := r.timed("core.Iperf", i, -1, func() { sys.Iperf(time.Second) })
		st := sys.Net.Stats()
		r.sample("netsim.iperf_ms", ms(d))
		r.sample("netsim.host_ns_per_segment", ratio(float64(d), float64(st.SegmentsDelivered+st.SegmentsLost)))
	}
}

// probeCPU times cpu.New plus Thread.Exec of tasks around the sweep's mean
// task size (0.5× to 1.5×, mean preserved) on one foreground thread.
func probeCPU(r *run) {
	mean := median(r.samples["cpu.task_cycles_mean"])
	if !(mean > 0) {
		mean = 1e6
	}
	const n = 20000
	for i := 0; i < 3; i++ {
		d := r.timed("cpu.Exec", i, -1, func() {
			s := sim.New()
			c := cpu.New(s, cpu.FromSpec(device.Nexus4(), cpu.Performance))
			th := c.NewThread("probe", true)
			left := n
			for k := 0; k < n; k++ {
				th.Exec("task", mean*(0.5+float64(k%5)/4), func() {
					if left--; left == 0 {
						c.Stop()
					}
				})
			}
			s.Run()
		})
		r.sample("cpu.host_ns_per_task", float64(d)/n)
	}
}
