// Command perfbench is the whole-system benchmark of this repository. It
// drives the simulator the way its users do and reports host time, end to
// end and layer by layer:
//
//	bash perfbench/run.sh --workload cold-web --seed 1 --seconds 30 --trace 0
//
// Workloads (see README.md for why each exists and which layer metrics
// should move with which end-to-end metric):
//
//   - cold-web: one closed-loop client sending fig3a/fig7a requests at
//     fresh seeds through engine.Compose → ExecutePlan → RenderResults, so
//     every request builds its corpus;
//   - warm-figures: closed-loop sweeps of five figures through runner.Run
//     with corpora built in set-up;
//   - serve-mix: open-loop Poisson traffic into an in-process engine.Engine:
//     result-cache hits, never-repeated scenario variants and small fleets.
//     It runs like the others but is not in BENCHMARK.json: its spread
//     between runs on a 2-CPU VM exceeded the bounds (see README.md).
//
// The invoked process only orchestrates: each workload runs in fresh child
// processes of this binary, so cold-web starts with empty caches and every
// workload gets its own peak RSS. With --trace 0 the run reports the
// end-to-end metrics of one untraced child plus the median set-up time of
// several; with --trace 1 it runs the workload untraced and traced on the
// same inputs and reports per-layer metrics from the traced child. The last
// line of standard output is always one JSON object:
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{"name":{"value":v,"unit":"u"}}}
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"sort"
	"strings"
	"time"
)

// defaultSeed is the workload seed whose rendered outputs are pinned in
// digests.json.
const defaultSeed = 1

// runBudget bounds a whole run, children included: a run must end within
// 180 s. A child still running at the deadline is killed.
const runBudget = 170 * time.Second

// deadline is when the invoked process must be done.
var deadline = time.Now().Add(runBudget)

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int

	child       string // "", "run" or "setup"
	traced      bool
	alterOutput bool
	record      string // workload whose digests -record-digests rewrites
}

func main() {
	var o options
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	fs.Uint64Var(&o.seed, "seed", defaultSeed, "workload seed; the same seed gives the same inputs")
	fs.Float64Var(&o.seconds, "seconds", 20, "seconds one run measures")
	fs.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	fs.StringVar(&o.child, "child", "", "internal: run one workload process (run|setup)")
	fs.BoolVar(&o.traced, "traced", false, "internal: record spans in this child")
	fs.BoolVar(&o.alterOutput, "alter-output", false, "self-test: corrupt the first rendered output before it is checked")
	fs.StringVar(&o.record, "record-digests", "", "rewrite the stored output digests of this workload at the default seed, then exit")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	if err := dispatch(o); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func dispatch(o options) error {
	if o.record != "" {
		return recordDigests(o)
	}
	w, ok := workloads[o.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (have %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	if o.seconds <= 0 || (o.trace != 0 && o.trace != 1) {
		return fmt.Errorf("need --seconds > 0 and --trace 0|1")
	}
	if o.child != "" {
		return runChild(w, o)
	}
	if o.trace == 1 {
		return traceMode(o)
	}
	return endToEnd(w, o)
}

// setups is how many fresh processes' set-up times are measured; the
// median is reported.
const setups = 3

// endToEnd measures one untraced child and the set-up time of setups fresh
// processes (the measured child is the first of them).
func endToEnd(w workload, o options) error {
	res, setup, err := spawn(o, "run", false)
	if err != nil {
		return err
	}
	setupS := []float64{setup}
	for len(setupS) < setups {
		_, s, err := spawn(o, "setup", false)
		if err != nil {
			return err
		}
		setupS = append(setupS, s)
	}
	lat := append([]float64(nil), res.UnitMS...)
	sort.Float64s(lat)
	tailV, tailP, beyond := tail(lat)
	window := res.WindowS
	values := map[string]float64{
		"setup_s":          median(setupS),
		"latency_p50_ms":   quantile(lat, 0.5),
		"latency_tail_ms":  tailV,
		"throughput_per_s": float64(len(lat)) / window,
		"goodput_per_s":    float64(res.WithinLimit) / window,
		"peak_rss_mb":      res.PeakRSSMB,
	}
	var met []metric
	for _, m := range endToEndMetrics {
		met = append(met, metric{m.name, values[m.name], m.unit})
	}
	fmt.Printf("workload %s seed %d: %d attempted, %d failed, %d completed in %.3f s; %d outputs checked against stored digests\n",
		o.workload, o.seed, res.Attempted, res.Failed, len(lat), window, res.DigestsChecked)
	fmt.Printf("set-up samples (s): %s\n", fmtList(setupS))
	fmt.Printf("latency_tail_ms is p%.2f over %d samples, %d beyond it; latency limit %v\n",
		tailP, len(lat), beyond, w.limit)
	fmt.Printf("failed_ratio %.6f (failed, refused, timed-out or wrong-output units over attempted)\n",
		ratio(float64(res.Failed), float64(res.Attempted)))
	return finish(res, met)
}

// traceMode runs the workload untraced and then traced, each for half the
// run, on the same inputs. Timings come from the traced child; counts that
// tracing itself would perturb (cache hit ratios, allocations, generator
// lag) come from the untraced one.
func traceMode(o options) error {
	half := o
	half.seconds = o.seconds / 2
	plain, _, err := spawn(half, "run", false)
	if err != nil {
		return err
	}
	traced, _, err := spawn(half, "run", true)
	if err != nil {
		return err
	}
	layers := map[string]float64{}
	for k, v := range traced.Layers {
		layers[k] = v
	}
	for k, v := range plain.Untraced {
		layers[k] = v
	}
	k := min(len(plain.UnitMS), len(traced.UnitMS))
	layers["trace.overhead_ratio"] = ratio(sum(traced.UnitMS[:k]), sum(plain.UnitMS[:k]))
	merged := traced
	merged.Attempted += plain.Attempted
	merged.Failed += plain.Failed
	merged.Errors = append(plain.Errors, traced.Errors...)
	if merged.Invalid == "" {
		merged.Invalid = plain.Invalid
	}
	var met []metric
	missing := []string{}
	for _, l := range layerMetrics {
		v, ok := layers[l.name]
		if !ok {
			missing = append(missing, l.name)
			continue
		}
		met = append(met, metric{l.name, v, l.unit})
	}
	if len(missing) > 0 {
		return fmt.Errorf("traced run did not produce %s", strings.Join(missing, ", "))
	}
	fmt.Printf("workload %s seed %d traced: overhead over %d units; spans in %s\n",
		o.workload, o.seed, k, traced.TraceFile)
	return finish(merged, met)
}

// endToEndMetrics are BENCHMARK.json's end_to_end metrics, in order.
var endToEndMetrics = []metricName{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"throughput_per_s", "1/s"},
	{"goodput_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
}

type metric struct {
	name  string
	value float64
	unit  string
}

// finish prints every metric as a line, then the result object last.
func finish(res childResult, met []metric) error {
	out := map[string]any{}
	for _, m := range met {
		fmt.Printf("%-34s %16.6f %s\n", m.name, m.value, m.unit)
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return fmt.Errorf("metric %s is %v", m.name, m.value)
		}
		out[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	for _, e := range res.Errors {
		fmt.Printf("error: %s\n", e)
	}
	correct := res.Failed == 0 && res.WrongOutputs == 0 && res.Invalid == ""
	if res.Invalid != "" {
		fmt.Printf("run invalid: %s\n", res.Invalid)
	}
	b, err := json.Marshal(map[string]any{
		"correct":   correct,
		"attempted": res.Attempted,
		"failed":    res.Failed,
		"metrics":   out,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// spawn runs one child process of this binary. It returns the child's
// result and its set-up time: from process start to the child's ready line.
func spawn(o options, mode string, traced bool) (childResult, float64, error) {
	var res childResult
	self, err := os.Executable()
	if err != nil {
		return res, 0, err
	}
	args := []string{"-child", mode, "-workload", o.workload,
		"-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds)}
	if traced {
		args = append(args, "-traced")
	}
	if o.alterOutput {
		args = append(args, "-alter-output")
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return res, 0, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return res, 0, err
	}
	timer := time.AfterFunc(time.Until(deadline), func() { _ = cmd.Process.Kill() })
	defer timer.Stop()
	var setup float64
	var line []byte
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	for sc.Scan() {
		switch t := sc.Text(); {
		case t == readyLine:
			setup = time.Since(start).Seconds()
		case strings.HasPrefix(t, resultPrefix):
			line = []byte(strings.TrimPrefix(t, resultPrefix))
		default:
			fmt.Fprintln(os.Stderr, t)
		}
	}
	_, _ = io.Copy(io.Discard, stdout)
	werr := cmd.Wait()
	if err := sc.Err(); err != nil {
		return res, 0, fmt.Errorf("child %s: %w", mode, err)
	}
	if werr != nil {
		return res, 0, fmt.Errorf("child %s %s: %w", mode, o.workload, werr)
	}
	if setup == 0 {
		return res, 0, errors.New("child exited before it was ready")
	}
	if mode == "run" {
		if line == nil {
			return res, 0, errors.New("child printed no result")
		}
		if err := json.Unmarshal(line, &res); err != nil {
			return res, 0, fmt.Errorf("child result: %w", err)
		}
	}
	return res, setup, nil
}

func fmtList(v []float64) string {
	s := make([]string, len(v))
	for i, x := range v {
		s[i] = fmt.Sprintf("%.4f", x)
	}
	return strings.Join(s, " ")
}
