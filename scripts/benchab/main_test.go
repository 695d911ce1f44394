package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// loadBenchmark reads the repository's BENCHMARK.json, so the tests gate
// with the same bounds the program does.
func loadBenchmark(t *testing.T) benchmark {
	t.Helper()
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmark
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// side describes one side's synthetic results: every run reports these.
type side struct {
	correct           bool
	attempted, failed int
	latencyScale      float64 // multiplies latency_p50_ms
	allocScale        float64 // multiplies alloc.objects_per_unit
}

var good = side{correct: true, attempted: 20, latencyScale: 1, allocScale: 1}

// records builds a full A/B run from synthetic result lines: pairs --trace 0
// runs per workload and side, plus one --trace 1 warm-figures run per side.
func records(b benchmark, head, base side) []record {
	var recs []record
	add := func(name string, s side, w string, seed, trace int) {
		metrics := map[string]map[string]float64{}
		if trace == 0 {
			for _, m := range b.EndToEnd {
				metrics[m.Name] = map[string]float64{"value": 100 + float64(seed%3)}
			}
			metrics["latency_p50_ms"]["value"] *= s.latencyScale
		} else {
			metrics["alloc.objects_per_unit"] = map[string]float64{"value": 1.29e6 * s.allocScale}
		}
		line, _ := json.Marshal(map[string]any{"correct": s.correct, "attempted": s.attempted,
			"failed": s.failed, "metrics": metrics})
		recs = append(recs, record{name, w, seed, trace, line})
	}
	for seed := 1; seed <= pairs; seed++ {
		for _, w := range b.Workloads {
			add("base", base, w.Name, seed, 0)
			add("head", head, w.Name, seed, 0)
		}
	}
	add("base", base, "warm-figures", 1, 1)
	add("head", head, "warm-figures", 1, 1)
	return recs
}

func TestCompareGate(t *testing.T) {
	b := loadBenchmark(t)
	slower, wrong, failing, allocs := good, good, good, good
	slower.latencyScale = 1.30
	wrong.correct = false
	failing.failed = 1
	allocs.allocScale = 1.20
	within := good
	within.latencyScale, within.allocScale = 1.10, 1.10
	for _, tc := range []struct {
		name string
		head side
		want string // "" means the head passes
	}{
		{"latency 30% worse", slower, "latency_p50_ms"},
		{"correct false", wrong, "not correct"},
		{"higher failed share", failing, "head failed"},
		{"alloc 20% worse", allocs, "alloc.objects_per_unit"},
		{"within every bound", within, ""},
		{"identical", good, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bad := compare(b, records(b, tc.head, good))
			got := strings.Join(bad, "\n")
			if tc.want == "" && len(bad) > 0 {
				t.Fatalf("head within bounds failed the gate:\n%s", got)
			}
			if tc.want != "" && !strings.Contains(got, tc.want) {
				t.Fatalf("gate did not fail on %s; violations:\n%s", tc.want, got)
			}
		})
	}
}

func TestCompareMissingSide(t *testing.T) {
	b := loadBenchmark(t)
	var headOnly []record
	for _, r := range records(b, good, good) {
		if r.Side == "head" {
			headOnly = append(headOnly, r)
		}
	}
	if bad := compare(b, headOnly); len(bad) == 0 {
		t.Fatal("a run without base results passed the gate")
	}
}
