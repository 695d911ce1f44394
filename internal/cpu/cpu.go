// Package cpu simulates a mobile multicore application processor: per-cluster
// DVFS with an operating-point table, the five Android cpufreq governors the
// paper studies (performance, interactive, userspace, ondemand, powersave),
// CPU hotplug for the core-count sweeps, big.LITTLE placement policy, and a
// processor-sharing scheduler that charges task cycles to cores at the
// current frequency.
//
// Workloads are expressed as Threads that execute Tasks measured in
// reference cycles (cycles at IPC 1.0, the Nexus4 Krait baseline). A thread
// runs on one core at a time; runnable threads assigned to the same core
// share it equally. Everything runs inside a sim.Sim, so runs are
// deterministic and an energy.Meter can integrate power over virtual time.
package cpu

import (
	"fmt"
	"time"

	"mobileqoe/internal/device"
	"mobileqoe/internal/energy"
	"mobileqoe/internal/obs"
	"mobileqoe/internal/sim"
	"mobileqoe/internal/trace"
	"mobileqoe/internal/units"
)

// GovernorKind selects a cpufreq scaling policy. The short names match the
// x-axis labels of the paper's governor figures.
type GovernorKind string

// The governors observed on the studied phones.
const (
	Performance GovernorKind = "PF" // pin to fmax
	Interactive GovernorKind = "IN" // fast ramp on load, gradual decay
	Userspace   GovernorKind = "US" // fixed experimenter-chosen frequency
	Ondemand    GovernorKind = "OD" // jump to fmax over threshold, else proportional
	Powersave   GovernorKind = "PW" // pin to fmin
)

// Governors lists all kinds in the paper's plotting order.
func Governors() []GovernorKind {
	return []GovernorKind{Performance, Interactive, Userspace, Ondemand, Powersave}
}

// Governor sampling parameters (Android defaults, simplified).
const (
	ondemandPeriod      = 100 * time.Millisecond
	interactivePeriod   = 20 * time.Millisecond
	ondemandUpThresh    = 0.80
	interactiveUpThresh = 0.85
)

// Config describes the CPU to simulate.
type Config struct {
	Big             device.Cluster
	Little          *device.Cluster // nil for single-cluster SoCs
	ForegroundOnBig bool            // vendor scheduler policy (see device.Spec)
	Governor        GovernorKind
	UserspaceFreq   units.Freq // target for the userspace governor; 0 = median step

	// Obs bundles the observability plane. Obs.Meter, when non-nil,
	// integrates component "cpu" power. Obs.Trace, when non-nil, receives
	// task spans (one lane per thread), per-cluster frequency counter
	// tracks, and hotplug instants under category "cpu", attributed to
	// process Obs.Pid. Obs.Metrics, when non-nil, accumulates
	// cpu.governor_transitions, cpu.tasks, and cpu.task_cycles.
	Obs obs.Ctx

	// SwitchOverhead is the per-extra-runnable-thread multiplexing penalty on
	// a core: with n threads sharing a core its useful capacity shrinks to
	// 1/(1+SwitchOverhead·(n-1)) — context switches, cache thrash, scheduler
	// latency. Zero selects the default (DefaultSwitchOverhead); pass
	// NoSwitchOverhead for an ideal fluid processor. This penalty is what
	// lets a hotplugged single core behave worse than the same aggregate
	// capacity spread over four cores (the paper's Fig. 4c stalls).
	SwitchOverhead float64
}

// Context-switch overhead settings for Config.SwitchOverhead.
const (
	DefaultSwitchOverhead = 0.20
	NoSwitchOverhead      = -1
)

// RTWeightThreshold is the scheduling weight at which a thread is treated
// as real-time: it is served before normal threads and pays no multiplexing
// penalty (it preempts rather than round-robins). Android's compositor and
// audio threads behave this way.
const RTWeightThreshold = 4

// switchEff returns the capacity factor for a core running n threads.
func (c *CPU) switchEff(n int) float64 {
	if n <= 1 {
		return 1
	}
	ov := c.cfg.SwitchOverhead
	if ov == 0 {
		ov = DefaultSwitchOverhead
	}
	if ov < 0 {
		return 1
	}
	return 1 / (1 + ov*float64(n-1))
}

// FromSpec builds a Config from a catalog device.
func FromSpec(s device.Spec, gov GovernorKind) Config {
	return Config{
		Big:             s.Big,
		Little:          s.Little,
		ForegroundOnBig: s.ForegroundOnBig,
		Governor:        gov,
	}
}

// CPU is a simulated application processor.
type CPU struct {
	s        *sim.Sim
	cfg      Config
	clusters []*cluster
	cores    []*core // all cores, big cluster first
	threads  []*Thread
	ticker   *sim.Ticker
	online   int
	taskFree []*task // recycled task objects (the per-packet Exec path is hot)

	// Metrics handles, resolved once in New; nil-safe when metrics are off.
	mGovTransitions *trace.Counter
	mTasks          *trace.Counter
	mTaskCycles     *trace.Histogram
}

type cluster struct {
	cpu   *CPU
	id    int
	spec  device.Cluster
	steps []units.Freq
	freq  units.Freq
	volts energy.VoltageCurve
	cores []*core
	ceff  float64
}

type core struct {
	cl           *cluster
	id           int // global index
	online       bool
	threads      []*Thread
	busyAccum    time.Duration
	lastBusySnap time.Duration // snapshot at last governor sample
	lastSettle   time.Duration
}

// Thread is a schedulable FIFO queue of tasks. Create with NewThread.
type Thread struct {
	cpu        *CPU
	name       string
	foreground bool
	weight     float64 // scheduling weight (1 = CFS default)
	queue      []*task
	core       *core
	rate       float64 // cycles/sec currently granted
	// completion is the thread's single completion event, allocated on first
	// use and thereafter reprogrammed in place (sim.Reset) every time the
	// schedule changes; completeFn is its one bound callback. Queued() tells
	// whether it is currently armed.
	completion *sim.Event
	completeFn func()
	tid        int // trace lane, 0 when tracing is off
}

// SetWeight changes the thread's scheduling weight. Runnable threads on a
// core share it in proportion to weight; a real-time thread (e.g. Android's
// compositor) models as a high weight. Must be positive.
func (t *Thread) SetWeight(w float64) {
	if w <= 0 {
		panic("cpu: thread weight must be positive")
	}
	c := t.cpu
	c.settle()
	t.weight = w
	c.reschedule()
}

type task struct {
	name      string
	remaining float64
	cost      float64 // original reference-cycle cost
	done      func()
	settled   time.Duration
	start     time.Duration // when the task reached the queue head
}

// New constructs a CPU on the given simulator. The governor starts running
// immediately (its first sample fires one period in).
func New(s *sim.Sim, cfg Config) *CPU {
	if cfg.Big.Cores <= 0 {
		panic("cpu: big cluster must have at least one core")
	}
	if cfg.Big.IPC <= 0 {
		panic("cpu: big cluster IPC must be positive")
	}
	c := &CPU{s: s, cfg: cfg}
	c.addCluster(cfg.Big, 1.0)
	if cfg.Little != nil {
		if cfg.Little.Cores <= 0 || cfg.Little.IPC <= 0 {
			panic("cpu: invalid little cluster")
		}
		c.addCluster(*cfg.Little, 0.35) // little cores switch far less capacitance
	}
	c.online = len(c.cores)
	c.mGovTransitions = cfg.Obs.Counter("cpu.governor_transitions")
	c.mTasks = cfg.Obs.Counter("cpu.tasks")
	c.mTaskCycles = cfg.Obs.Histogram("cpu.task_cycles")
	c.applyGovernorInitial()
	for _, cl := range c.clusters {
		c.traceFreq(cl)
	}
	c.startGovernor()
	c.updatePower()
	return c
}

// traceFreq samples the cluster's frequency counter track.
func (c *CPU) traceFreq(cl *cluster) {
	if tr := c.cfg.Obs.Trace; tr != nil {
		tr.Counter("cpu", fmt.Sprintf("freq.cluster%d", cl.id),
			c.cfg.Obs.Pid, c.s.Now(), cl.freq.Hz()/1e6)
	}
}

// setFreq retargets a cluster, recording the governor decision when the
// operating point actually changes.
func (c *CPU) setFreq(cl *cluster, f units.Freq) {
	if f == cl.freq {
		return
	}
	cl.freq = f
	c.mGovTransitions.Add(1)
	c.traceFreq(cl)
}

func (c *CPU) addCluster(spec device.Cluster, ceffScale float64) {
	cl := &cluster{
		cpu:   c,
		id:    len(c.clusters),
		spec:  spec,
		steps: spec.FreqTable(),
		volts: energy.DefaultVoltageCurve(spec.FMin, spec.FMax),
		ceff:  energy.CoreCeff * ceffScale,
	}
	cl.freq = spec.FMax
	for i := 0; i < spec.Cores; i++ {
		co := &core{cl: cl, id: len(c.cores), online: true}
		cl.cores = append(cl.cores, co)
		c.cores = append(c.cores, co)
	}
	c.clusters = append(c.clusters, cl)
}

// Sim returns the simulator the CPU runs on.
func (c *CPU) Sim() *sim.Sim { return c.s }

// Stop halts the governor ticker. Call when an experiment's run is complete
// so that Sim.Run terminates.
func (c *CPU) Stop() {
	if c.ticker != nil {
		c.ticker.Stop()
		c.ticker = nil
	}
}

// ----- governors -----

func (c *CPU) applyGovernorInitial() {
	for _, cl := range c.clusters {
		switch c.cfg.Governor {
		case Performance:
			cl.freq = cl.spec.FMax
		case Powersave:
			cl.freq = cl.spec.FMin
		case Userspace:
			cl.freq = cl.snap(c.userspaceTarget(cl))
		case Ondemand, Interactive:
			cl.freq = cl.spec.FMin // scale up on demand
		default:
			panic(fmt.Sprintf("cpu: unknown governor %q", c.cfg.Governor))
		}
	}
}

func (c *CPU) userspaceTarget(cl *cluster) units.Freq {
	if c.cfg.UserspaceFreq > 0 {
		return c.cfg.UserspaceFreq
	}
	return cl.steps[len(cl.steps)/2]
}

func (c *CPU) startGovernor() {
	var period time.Duration
	switch c.cfg.Governor {
	case Ondemand:
		period = ondemandPeriod
	case Interactive:
		period = interactivePeriod
	default:
		return // static policies need no sampling
	}
	c.ticker = c.s.NewTicker(period, func() { c.governorSample(period) })
}

func (c *CPU) governorSample(window time.Duration) {
	c.settle()
	for _, cl := range c.clusters {
		util := cl.utilizationSince(window)
		var target units.Freq
		switch c.cfg.Governor {
		case Ondemand:
			if util > ondemandUpThresh {
				target = cl.spec.FMax
			} else {
				// Proportional scale-down keeping headroom over the load.
				target = units.Freq(util / ondemandUpThresh * cl.spec.FMax.Hz())
			}
		case Interactive:
			hispeed := cl.snap(units.Freq(0.8 * cl.spec.FMax.Hz()))
			switch {
			case util > interactiveUpThresh && cl.freq < hispeed:
				target = hispeed
			case util > interactiveUpThresh:
				target = cl.spec.FMax
			default:
				// Gradual decay: one step down toward the load-proportional target.
				want := units.Freq(util / interactiveUpThresh * cl.spec.FMax.Hz())
				target = cl.stepToward(want)
			}
		}
		c.setFreq(cl, cl.snap(target))
	}
	c.reschedule()
}

// utilizationSince returns the highest per-core utilization in the window,
// matching Linux cpufreq's policy of scaling to the busiest CPU in the
// cluster (averaging would let one saturated core hide behind idle ones).
func (cl *cluster) utilizationSince(window time.Duration) float64 {
	util := 0.0
	for _, co := range cl.cores {
		u := float64(co.busyAccum-co.lastBusySnap) / float64(window)
		co.lastBusySnap = co.busyAccum
		if co.online && u > util {
			util = u
		}
	}
	if util < 0 {
		util = 0
	}
	if util > 1 {
		util = 1
	}
	return util
}

// snap rounds up to the nearest available operating point (cpufreq picks the
// lowest frequency satisfying the request), clamped to the table.
func (cl *cluster) snap(f units.Freq) units.Freq {
	for _, s := range cl.steps {
		if s >= f {
			return s
		}
	}
	return cl.steps[len(cl.steps)-1]
}

// stepToward moves one table step from the current frequency toward want.
func (cl *cluster) stepToward(want units.Freq) units.Freq {
	cur := cl.snap(cl.freq)
	idx := 0
	for i, s := range cl.steps {
		if s == cur {
			idx = i
			break
		}
	}
	target := cl.snap(want)
	switch {
	case target > cur && idx+1 < len(cl.steps):
		return cl.steps[idx+1]
	case target < cur && idx > 0:
		return cl.steps[idx-1]
	}
	return cur
}

// ----- public controls -----

// SetUserspaceFreq retargets the userspace governor. It is the mechanism of
// the paper's clock sweeps ("we change the clock using ADB on a rooted
// phone"). Panics when the configured governor is not Userspace.
func (c *CPU) SetUserspaceFreq(f units.Freq) {
	if c.cfg.Governor != Userspace {
		panic("cpu: SetUserspaceFreq requires the userspace governor")
	}
	c.settle()
	c.cfg.UserspaceFreq = f
	for _, cl := range c.clusters {
		c.setFreq(cl, cl.snap(f))
	}
	c.reschedule()
}

// SetOnlineCores hot-(un)plugs cores so that exactly n remain online,
// keeping big-cluster cores first. n is clamped to [1, total].
func (c *CPU) SetOnlineCores(n int) {
	if n < 1 {
		n = 1
	}
	if n > len(c.cores) {
		n = len(c.cores)
	}
	c.settle()
	if n != c.online {
		if tr := c.cfg.Obs.Trace; tr != nil {
			tr.Instant("cpu", "hotplug", c.cfg.Obs.Pid, 0, c.s.Now(),
				trace.Arg{Key: "online", Val: float64(n)})
		}
	}
	c.online = n
	for i, co := range c.cores {
		co.online = i < n
	}
	// Migrate threads off offline cores.
	for _, co := range c.cores {
		if co.online {
			continue
		}
		for _, th := range co.threads {
			th.core = nil
		}
		orphans := co.threads
		co.threads = nil
		for _, th := range orphans {
			c.place(th)
		}
	}
	c.reschedule()
}

// OnlineCores returns the number of online cores.
func (c *CPU) OnlineCores() int { return c.online }

// Freq returns the current big-cluster frequency.
func (c *CPU) Freq() units.Freq { return c.clusters[0].freq }

// EffectiveRate returns the cycles/second a lone thread of the given kind
// would currently receive; used by closed-form estimators.
func (c *CPU) EffectiveRate(foreground bool) float64 {
	cl := c.clusterFor(foreground)
	return cl.freq.Hz() * cl.spec.IPC
}

// CoreBusy returns each core's accumulated busy time.
func (c *CPU) CoreBusy() []time.Duration {
	c.settle()
	out := make([]time.Duration, len(c.cores))
	for i, co := range c.cores {
		out[i] = co.busyAccum
	}
	return out
}

// ----- threads & scheduling -----

// NewThread creates an idle thread. Foreground threads follow the device's
// big.LITTLE foreground placement policy; background threads fill the least
// loaded cores.
func (c *CPU) NewThread(name string, foreground bool) *Thread {
	t := &Thread{cpu: c, name: name, foreground: foreground, weight: 1}
	t.completeFn = func() { c.onCompletion(t) }
	if tr := c.cfg.Obs.Trace; tr != nil {
		t.tid = tr.Thread(c.cfg.Obs.Pid, "cpu:"+name)
	}
	c.threads = append(c.threads, t)
	return t
}

// newTask builds a task, reusing a recycled object when one is available.
func (c *CPU) newTask(name string, cycles float64, done func(), now time.Duration) *task {
	if n := len(c.taskFree); n > 0 {
		tk := c.taskFree[n-1]
		c.taskFree[n-1] = nil
		c.taskFree = c.taskFree[:n-1]
		*tk = task{name: name, remaining: cycles, cost: cycles,
			done: done, settled: now, start: now}
		return tk
	}
	return &task{name: name, remaining: cycles, cost: cycles,
		done: done, settled: now, start: now}
}

// Exec appends a task of the given reference-cycle cost to the thread's
// queue; done (may be nil) runs when the task completes. Zero-cycle tasks
// complete on the next event boundary.
func (t *Thread) Exec(name string, cycles float64, done func()) {
	if cycles < 0 {
		panic("cpu: negative task cycles")
	}
	c := t.cpu
	c.settle()
	t.queue = append(t.queue, c.newTask(name, cycles, done, c.s.Now()))
	if t.core == nil {
		c.place(t)
	}
	c.reschedule()
}

// QueueLen returns the number of queued (including running) tasks.
func (t *Thread) QueueLen() int { return len(t.queue) }

// Name returns the thread's name.
func (t *Thread) Name() string { return t.name }

func (c *CPU) clusterFor(foreground bool) *cluster {
	if len(c.clusters) == 1 {
		return c.clusters[0]
	}
	if foreground == c.cfg.ForegroundOnBig {
		return c.clusters[0]
	}
	return c.clusters[1]
}

// place assigns a runnable thread to an online core. Load is measured as
// the sum of scheduling weights already on the core, so normal threads avoid
// cores occupied by real-time work (which would starve them) and vice versa;
// the policy-preferred cluster gets a half-unit bonus.
func (c *CPU) place(t *Thread) {
	pref := c.clusterFor(t.foreground)
	var best *core
	bestLoad := 0.0
	for _, co := range c.cores {
		if !co.online {
			continue
		}
		load := 0.0
		for _, th := range co.threads {
			load += th.weight
		}
		if co.cl == pref {
			load -= 0.5
		}
		if best == nil || load < bestLoad {
			best = co
			bestLoad = load
		}
	}
	if best == nil {
		panic("cpu: no online cores")
	}
	t.core = best
	best.threads = append(best.threads, t)
}

// settle charges elapsed work to every running task and busy time to every
// busy core, bringing all bookkeeping up to Now. Call before any state
// mutation.
func (c *CPU) settle() {
	now := c.s.Now()
	for _, co := range c.cores {
		if len(co.threads) > 0 && co.online {
			co.busyAccum += now - co.lastSettle
		}
		co.lastSettle = now
		for _, th := range co.threads {
			if len(th.queue) == 0 {
				continue
			}
			cur := th.queue[0]
			work := th.rate * (now - cur.settled).Seconds()
			if work > cur.remaining {
				work = cur.remaining
			}
			cur.remaining -= work
			cur.settled = now
		}
	}
}

// reschedule recomputes rates, rebalances idle cores, reprograms completion
// events, and refreshes the power meter. Call after any state mutation.
func (c *CPU) reschedule() {
	c.rebalance()
	for _, co := range c.cores {
		n := len(co.threads)
		// Two scheduling classes: real-time threads (weight >= RTWeightThreshold)
		// take their weighted share off the top with no multiplexing penalty;
		// normal threads split the remainder and pay the context-switch
		// overhead for their own multiplexing.
		var wsum, wNormal float64
		nNormal := 0
		for _, th := range co.threads {
			wsum += th.weight
			if th.weight < RTWeightThreshold {
				wNormal += th.weight
				nNormal++
			}
		}
		eff := c.switchEff(nNormal)
		cap := co.cl.freq.Hz() * co.cl.spec.IPC
		for _, th := range co.threads {
			rate := 0.0
			if co.online && n > 0 {
				if th.weight >= RTWeightThreshold {
					rate = cap * th.weight / wsum
				} else {
					leftover := cap * wNormal / wsum
					rate = leftover * eff * th.weight / wNormal
				}
			}
			th.rate = rate
			if len(th.queue) == 0 || rate <= 0 {
				// Idle, or stalled until a core comes back: disarm without
				// discarding the event — the next reprogramming reuses it.
				if th.completion != nil && th.completion.Queued() {
					c.s.Cancel(th.completion)
				}
				continue
			}
			d := units.DurationFor(th.queue[0].remaining, units.Freq(rate))
			if th.completion == nil {
				th.completion = c.s.After(d, th.completeFn)
			} else {
				c.s.Reset(th.completion, c.s.Now()+d)
			}
		}
	}
	c.updatePower()
}

// rebalance moves waiting threads from overloaded cores onto empty online
// cores, mimicking the load balancer waking an idle CPU.
func (c *CPU) rebalance() {
	for {
		var empty *core
		for _, co := range c.cores {
			if co.online && len(co.threads) == 0 {
				empty = co
				break
			}
		}
		if empty == nil {
			return
		}
		var donor *core
		donorLoad := 0.0
		for _, co := range c.cores {
			if !co.online || len(co.threads) < 2 {
				continue
			}
			load := 0.0
			for _, th := range co.threads {
				load += th.weight
			}
			if donor == nil || load > donorLoad {
				donor = co
				donorLoad = load
			}
		}
		if donor == nil {
			return
		}
		th := donor.threads[len(donor.threads)-1]
		donor.threads = donor.threads[:len(donor.threads)-1]
		th.core = empty
		empty.threads = append(empty.threads, th)
	}
}

func (c *CPU) onCompletion(th *Thread) {
	c.settle()
	if len(th.queue) == 0 {
		c.reschedule()
		return
	}
	cur := th.queue[0]
	// Tolerate sub-nanosecond residue from duration rounding.
	if cur.remaining > th.rate*2e-9+1e-6 {
		c.reschedule() // spurious wakeup (rate changed since scheduling)
		return
	}
	cur.remaining = 0
	// Pop the queue head in place so the backing array keeps its capacity
	// (the per-packet rx path would otherwise reallocate it constantly).
	n := copy(th.queue, th.queue[1:])
	th.queue[n] = nil
	th.queue = th.queue[:n]
	if n == 0 {
		c.detach(th)
	} else {
		th.queue[0].settled = c.s.Now()
		th.queue[0].start = c.s.Now()
	}
	c.mTasks.Add(1)
	c.mTaskCycles.Observe(cur.cost)
	if tr := c.cfg.Obs.Trace; tr != nil {
		tr.Span("cpu", "task:"+cur.name, c.cfg.Obs.Pid, th.tid, cur.start, c.s.Now(),
			trace.Arg{Key: "cycles", Val: cur.cost})
	}
	c.reschedule()
	if cur.done != nil {
		cur.done()
	}
	// The task object is dead once its done callback returned; recycle it.
	*cur = task{}
	c.taskFree = append(c.taskFree, cur)
}

func (c *CPU) detach(th *Thread) {
	co := th.core
	if co == nil {
		return
	}
	for i, x := range co.threads {
		if x == th {
			co.threads = append(co.threads[:i], co.threads[i+1:]...)
			break
		}
	}
	th.core = nil
	th.rate = 0
}

func (c *CPU) updatePower() {
	if c.cfg.Obs.Meter == nil {
		return
	}
	total := 0.0
	for _, co := range c.cores {
		if !co.online {
			continue
		}
		total += energy.CoreIdleWatts
		if len(co.threads) > 0 {
			v := co.cl.volts.VoltsAt(co.cl.freq)
			total += energy.DynamicPower(co.cl.ceff, co.cl.freq, v)
		}
	}
	c.cfg.Obs.Meter.SetPower("cpu", total)
}
