package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"mobileqoe/internal/cache"
	"mobileqoe/internal/trace"
	"mobileqoe/internal/webpage"
)

// The child's stdout protocol: one ready line once set-up is done, one
// result line at the end. Anything else is passed through to stderr.
const (
	readyLine    = "PERFBENCH-READY"
	resultPrefix = "PERFBENCH-RESULT "
)

// childResult is what one workload process reports to the orchestrator.
type childResult struct {
	Attempted      int       `json:"attempted"`
	Failed         int       `json:"failed"`
	WrongOutputs   int       `json:"wrong_outputs"`
	Invalid        string    `json:"invalid,omitempty"`
	Errors         []string  `json:"errors,omitempty"`
	UnitMS         []float64 `json:"unit_ms"` // latencies of completed units
	WindowS        float64   `json:"window_s"`
	WithinLimit    int       `json:"within_limit"`
	PeakRSSMB      float64   `json:"peak_rss_mb"`
	DigestsChecked int       `json:"digests_checked"`
	// Layers are the traced child's per-layer metrics; Untraced are the
	// counts and ratios an untraced child reports, which tracing would
	// perturb (cache hit ratios, allocations, generator lag).
	Layers    map[string]float64 `json:"layers,omitempty"`
	Untraced  map[string]float64 `json:"untraced,omitempty"`
	TraceFile string             `json:"trace_file,omitempty"`
}

// workload describes one named workload; make builds its per-process state.
type workload struct {
	limit time.Duration // latency limit that goodput counts against
	make  func(r *run) instance
}

// instance is one process's run of a workload.
type instance interface {
	// setup prepares everything the timed units need; its wall time,
	// from process start, is the workload's set-up time.
	setup() error
	// loop runs timed units until the deadline and returns the
	// measurement window in seconds.
	loop(until time.Time) float64
	// probeSeed is a corpus seed whose Top50 corpus this process built.
	probeSeed() uint64
	// pages are pages the workload's units loaded, for script/rex replays.
	pages() []*webpage.Page
}

var workloads = map[string]workload{
	"cold-web":     {limit: 10 * time.Second, make: newColdWeb},
	"warm-figures": {limit: 2 * time.Second, make: newWarmFigures},
	"serve-mix":    {limit: serveLimit, make: newServeMix},
}

func workloadNames() []string {
	var n []string
	for k := range workloads {
		n = append(n, k)
	}
	sort.Strings(n)
	return n
}

// run is one child process's bookkeeping.
type run struct {
	o     options
	limit time.Duration
	check *checker

	mu      sync.Mutex
	res     childResult
	rec     *recorder // nil when untraced
	samples map[string][]float64
}

func (r *run) traced() bool { return r.rec != nil }

// sample adds one observation of a per-layer metric; the reported value is
// the median of its samples.
func (r *run) sample(name string, v float64) {
	r.mu.Lock()
	r.samples[name] = append(r.samples[name], v)
	r.mu.Unlock()
}

// aggregate reduces each metric's samples by the statistic its name ends
// in: .tail (the highest percentile with ten samples beyond it), .p99, or
// otherwise the median.
func (r *run) aggregate() map[string]float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := map[string]float64{}
	for k, v := range r.samples {
		switch {
		case strings.HasSuffix(k, ".tail"):
			out[k] = tailOf(v)
		case strings.HasSuffix(k, ".p99"):
			out[k] = p99(v)
		default:
			out[k] = median(v)
		}
	}
	return out
}

func (r *run) has(name string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.samples[name]) > 0
}

// done accounts one attempted unit: its latency, its error, and whether
// its output passed the check.
func (r *run) done(lat time.Duration, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.res.Attempted++
	if err != nil {
		r.res.Failed++
		r.noteLocked(err)
		return
	}
	r.res.UnitMS = append(r.res.UnitMS, ms(lat))
	if lat <= r.limit {
		r.res.WithinLimit++
	}
}

// checkOut checks a rendered output; a mismatch is returned as the unit's
// error and counted as a wrong output.
func (r *run) checkOut(key string, out []byte) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.check.check(key, out); err != nil {
		r.res.WrongOutputs++
		return err
	}
	return nil
}

// setupCheck checks an output rendered during set-up, which is not a timed
// unit; a mismatch still fails the run.
func (r *run) setupCheck(key string, out []byte, err error) {
	if err == nil {
		err = r.checkOut(key, out)
	}
	if err != nil {
		r.mu.Lock()
		r.res.Attempted++
		r.res.Failed++
		r.noteLocked(fmt.Errorf("set-up: %w", err))
		r.mu.Unlock()
	}
}

func (r *run) noteLocked(err error) {
	if len(r.res.Errors) < 8 {
		r.res.Errors = append(r.res.Errors, err.Error())
	}
}

func (r *run) invalid(reason string) {
	r.mu.Lock()
	if r.res.Invalid == "" {
		r.res.Invalid = reason
	}
	r.mu.Unlock()
}

func runChild(w workload, o options) error {
	chk, err := newChecker(o)
	if err != nil {
		return err
	}
	r := &run{o: o, limit: w.limit, check: chk, samples: map[string][]float64{}}
	if o.traced {
		r.rec = newRecorder()
	}
	inst := w.make(r)
	if err := inst.setup(); err != nil {
		return fmt.Errorf("%s set-up: %w", o.workload, err)
	}
	fmt.Println(readyLine)
	if o.child == "setup" {
		return nil
	}

	a0 := readAlloc()
	window := inst.loop(time.Now().Add(time.Duration(o.seconds * float64(time.Second))))
	a1 := readAlloc()
	r.res.WindowS = window
	r.res.DigestsChecked = chk.checked

	if r.traced() {
		probeLayers(r, inst)
		r.res.Layers = r.aggregate()
		spanLayers(r)
		path, err := r.rec.write(o)
		if err != nil {
			return err
		}
		r.res.TraceFile = path
	} else {
		units := float64(max(len(r.res.UnitMS), 1))
		u := map[string]float64{
			"alloc.bytes_per_unit":   (a1[0] - a0[0]) / units,
			"alloc.objects_per_unit": (a1[1] - a0[1]) / units,
			"gc.cycles_per_unit":     (a1[2] - a0[2]) / units,
		}
		for k, v := range r.aggregate() {
			u[k] = v
		}
		for k, v := range cacheRatios() {
			u[k] = v
		}
		r.res.Untraced = u
	}
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	r.res.PeakRSSMB = rss
	b, err := json.Marshal(r.res)
	if err != nil {
		return err
	}
	fmt.Println(resultPrefix + string(b))
	return nil
}

// cacheRatios reads the process-wide corpus and program caches.
func cacheRatios() map[string]float64 {
	m := trace.NewMetrics()
	cache.Publish(m)
	c := func(n string) float64 { return m.LookupCounter("cache." + n).Value() }
	hr := func(n string) float64 { return ratio(c(n+".hits"), c(n+".hits")+c(n+".misses")) }
	return map[string]float64{
		"cache.corpus.hit_ratio":   hr("webpage.corpus"),
		"cache.corpus.evictions":   c("webpage.corpus.evictions"),
		"cache.programs.hit_ratio": hr("script.programs"),
	}
}

// readAlloc returns cumulative heap bytes allocated, objects allocated and
// completed GC cycles.
func readAlloc() [3]float64 {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	var out [3]float64
	for i := range s {
		if s[i].Value.Kind() == metrics.KindUint64 {
			out[i] = float64(s[i].Value.Uint64())
		}
	}
	return out
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// deriveSeed gives unit k of a workload its own seed (splitmix64 over the
// workload seed, a workload tag and k). The result stays below 2^40 so
// trial seeds (seed*1e6+t) cannot overflow.
func deriveSeed(seed uint64, tag string, k int) uint64 {
	z := seed*0x9e3779b97f4a7c15 + uint64(k+1)*0xbf58476d1ce4e5b9
	for i := 0; i < len(tag); i++ {
		z = (z ^ uint64(tag[i])) * 0x100000001b3
	}
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z>>24 + 2
}

// recorder keeps the traced child's spans in memory: one per call the
// benchmark makes into a layer, with its parent and the unit it serves.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

type span struct {
	name       string
	unit       int
	parent     int // index of the enclosing span, -1 for none
	start, end time.Duration
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span now and returns its id; -1 when untraced.
func (r *run) begin(name string, unit, parent int) int {
	return r.spanAt(name, unit, parent, time.Now(), time.Time{})
}

// end closes span id now.
func (r *run) end(id int) {
	if r.rec == nil || id < 0 {
		return
	}
	r.rec.mu.Lock()
	r.rec.spans[id].end = time.Since(r.rec.t0)
	r.rec.mu.Unlock()
}

// spanAt records a span with explicit times; a zero end leaves it open.
// It returns the span's id, -1 when untraced.
func (r *run) spanAt(name string, unit, parent int, start, end time.Time) int {
	if r.rec == nil {
		return -1
	}
	rec := r.rec
	rec.mu.Lock()
	defer rec.mu.Unlock()
	e := time.Duration(-1)
	if !end.IsZero() {
		e = end.Sub(rec.t0)
	}
	rec.spans = append(rec.spans, span{name: name, unit: unit, parent: parent, start: start.Sub(rec.t0), end: e})
	return len(rec.spans) - 1
}

// timed runs fn as one span and returns its wall time, traced or not.
func (r *run) timed(name string, unit, parent int, fn func()) time.Duration {
	id := r.begin(name, unit, parent)
	t := time.Now()
	fn()
	d := time.Since(t)
	r.end(id)
	return d
}

// spanLayers derives span-based metrics: the share of unit time spent in
// the corpus layers (webpage, script, rex) among each unit's direct
// children.
func spanLayers(r *run) {
	rec := r.rec
	rec.mu.Lock()
	defer rec.mu.Unlock()
	var unitTime, corpusTime time.Duration
	for _, s := range rec.spans {
		if s.end < 0 {
			continue
		}
		if s.parent < 0 && strings.HasSuffix(s.name, ".unit") {
			unitTime += s.end - s.start
			continue
		}
		if s.parent >= 0 && strings.HasSuffix(rec.spans[s.parent].name, ".unit") {
			switch layerOf(s.name) {
			case "webpage", "script", "rex":
				corpusTime += s.end - s.start
			}
		}
	}
	r.res.Layers["attr.corpus_share"] = ratio(float64(corpusTime), float64(unitTime))
}

func layerOf(name string) string {
	l, _, _ := strings.Cut(name, ".")
	return l
}

// write exports the spans as Chrome trace JSON (loadable in Perfetto),
// one lane per concurrently open top-level span.
func (rec *recorder) write(o options) (string, error) {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	tr := trace.New()
	pid := tr.Process("perfbench " + o.workload)
	var laneEnd []time.Duration
	var laneTid []int
	lane := make([]int, len(rec.spans))
	for i, s := range rec.spans {
		end := s.end
		if end < 0 {
			end = s.start
		}
		if s.parent >= 0 {
			lane[i] = lane[s.parent]
		} else {
			l := 0
			for l < len(laneEnd) && laneEnd[l] > s.start {
				l++
			}
			if l == len(laneEnd) {
				laneEnd = append(laneEnd, 0)
				laneTid = append(laneTid, tr.Thread(pid, fmt.Sprintf("lane %d", l)))
			}
			laneEnd[l] = end
			lane[i] = l
		}
		tr.Span(layerOf(s.name), s.name, pid, laneTid[lane[i]], s.start, end,
			trace.Arg{Key: "unit", Val: float64(s.unit)},
			trace.Arg{Key: "parent", Val: float64(s.parent)})
	}
	dir := filepath.Join(".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("trace-%s-seed%d.json", o.workload, o.seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := tr.WriteJSON(f); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
