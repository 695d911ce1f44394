// Command benchab gates the whole-system benchmark: the working tree (head)
// against a base commit, both measured on this machine. Run it from the
// repository root:
//
//	go run ./scripts/benchab <base-rev>
//
// It extracts <base-rev> into a temporary directory. For pairs 1..10 (seed =
// pair index; the side that runs first alternates) it runs BENCHMARK.json's
// command for every gated workload at run_seconds with --trace 0 in both
// trees, then one --trace 1 run of warm-figures per side. Each run's result
// line is appended to BENCH_AB_<yyyy-mm-dd>.ndjson. It exits 1 on a result
// that is not correct, a higher failed share on head, a head median of an
// end-to-end metric worse than base's by more than its BENCHMARK.json bound,
// or warm-figures' alloc.objects_per_unit more than allocBound worse.
package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// pairs is how many interleaved head/base pairs run per workload.
const pairs = 10

// allocBound is the largest accepted relative increase of warm-figures'
// alloc.objects_per_unit.
const allocBound = 0.15

type metricSpec struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchmark is the part of BENCHMARK.json this program reads.
type benchmark struct {
	Command    []string `json:"command"`
	RunSeconds float64  `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
}

// record is one archived line; Result is the benchmark's last output line.
type record struct {
	Side     string          `json:"side"` // head or base
	Workload string          `json:"workload"`
	Seed     int             `json:"seed"`
	Trace    int             `json:"trace"`
	Result   json.RawMessage `json:"result"`
}

type result struct {
	Correct           bool
	Attempted, Failed int
	Metrics           map[string]struct{ Value float64 }
}

func main() {
	if len(os.Args) != 2 || strings.HasPrefix(os.Args[1], "-") {
		fmt.Fprintln(os.Stderr, "usage: go run ./scripts/benchab <base-rev>")
		os.Exit(2)
	}
	if err := run(os.Args[1]); err != nil {
		fmt.Fprintf(os.Stderr, "benchab: %v\n", err)
		os.Exit(1)
	}
}

func run(rev string) error {
	var b benchmark
	data, err := os.ReadFile("BENCHMARK.json")
	if err == nil {
		err = json.Unmarshal(data, &b)
	}
	if err != nil {
		return err
	}
	base, err := os.MkdirTemp("", "benchab-base-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(base)
	tarball := filepath.Join(base, "base.tar")
	if err := command(".", "git", "archive", "-o", tarball, rev).Run(); err != nil {
		return fmt.Errorf("git archive %s: %w", rev, err)
	}
	if err := command(base, "tar", "-xf", tarball).Run(); err != nil {
		return err
	}
	archive, err := os.OpenFile("BENCH_AB_"+time.Now().Format("2006-01-02")+".ndjson",
		os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer archive.Close()
	dirs := map[string]string{"head": ".", "base": base}
	var recs []record
	measure := func(side, workload string, seed, trace int) error {
		args := append(append([]string{}, b.Command[1:]...), "--workload", workload, "--seed", fmt.Sprint(seed),
			"--seconds", fmt.Sprint(b.RunSeconds), "--trace", fmt.Sprint(trace))
		out, err := command(dirs[side], b.Command[0], args...).Output()
		if err != nil {
			return fmt.Errorf("%s %s seed %d trace %d: %w", side, workload, seed, trace, err)
		}
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		rec := record{side, workload, seed, trace, json.RawMessage(lines[len(lines)-1])}
		line, err := json.Marshal(rec) // fails unless the result line is JSON
		if err != nil {
			return fmt.Errorf("%s %s seed %d trace %d: %w", side, workload, seed, trace, err)
		}
		fmt.Printf("%s\n", line)
		recs = append(recs, rec)
		_, err = archive.Write(append(line, '\n'))
		return err
	}
	for seed := 1; seed <= pairs; seed++ {
		sides := []string{"base", "head"}
		if seed%2 == 0 {
			sides = []string{"head", "base"}
		}
		for _, w := range b.Workloads {
			for _, side := range sides {
				if err := measure(side, w.Name, seed, 0); err != nil {
					return err
				}
			}
		}
	}
	for _, side := range []string{"base", "head"} {
		if err := measure(side, "warm-figures", 1, 1); err != nil {
			return err
		}
	}
	if bad := compare(b, recs); len(bad) > 0 {
		return fmt.Errorf("head fails the gate:\n  %s", strings.Join(bad, "\n  "))
	}
	fmt.Println("benchab: head is within every bound")
	return nil
}

func command(dir, name string, args ...string) *exec.Cmd {
	cmd := exec.Command(name, args...)
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	return cmd
}

// compare applies the gate to a set of records and returns one line per
// violation; none means head passes.
func compare(b benchmark, recs []record) []string {
	type key struct {
		workload, side, metric string
		trace                  int
	}
	values := map[key][]float64{} // one value per run
	failed := map[key][2]int{}    // {failed, attempted}, keyed by workload and side
	var bad []string
	for _, rec := range recs {
		var r result
		if json.Unmarshal(rec.Result, &r) != nil || !r.Correct {
			bad = append(bad, fmt.Sprintf("%s %s seed %d trace %d: not correct", rec.Side, rec.Workload, rec.Seed, rec.Trace))
		}
		f := key{workload: rec.Workload, side: rec.Side}
		failed[f] = [2]int{failed[f][0] + r.Failed, failed[f][1] + r.Attempted}
		for name, m := range r.Metrics {
			k := key{rec.Workload, rec.Side, name, rec.Trace}
			values[k] = append(values[k], m.Value)
		}
	}
	worse := func(w string, trace int, m metricSpec) {
		hv, bv := values[key{w, "head", m.Name, trace}], values[key{w, "base", m.Name, trace}]
		if len(hv) == 0 || len(bv) == 0 {
			bad = append(bad, fmt.Sprintf("%s: %s missing on a side", w, m.Name))
			return
		}
		head, base := median(hv), median(bv)
		change := (head - base) / base
		if m.Better == "higher" {
			change = -change
		}
		fmt.Printf("%-14s %-24s base %12.4f head %12.4f worse by %+7.3f (bound %.2f)\n", w, m.Name, base, head, change, m.Bound)
		if change > m.Bound {
			bad = append(bad, fmt.Sprintf("%s: %s head median %.4g is %.1f%% worse than base %.4g (bound %.0f%%)",
				w, m.Name, head, 100*change, base, 100*m.Bound))
		}
	}
	for _, wl := range b.Workloads {
		// head failed/attempted > base failed/attempted, without dividing by 0
		head, base := failed[key{workload: wl.Name, side: "head"}], failed[key{workload: wl.Name, side: "base"}]
		if head[0]*base[1] > base[0]*head[1] {
			bad = append(bad, fmt.Sprintf("%s: head failed %d of %d units, base %d of %d", wl.Name, head[0], head[1], base[0], base[1]))
		}
		for _, m := range b.EndToEnd {
			worse(wl.Name, 0, m)
		}
	}
	worse("warm-figures", 1, metricSpec{Name: "alloc.objects_per_unit", Better: "lower", Bound: allocBound})
	return bad
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	return (s[(n-1)/2] + s[n/2]) / 2
}
