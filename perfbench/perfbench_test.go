package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// benchmarkFile is the part of BENCHMARK.json the code must agree with.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestBenchmarkFileMatchesCode(t *testing.T) {
	f := loadBenchmarkFile(t)
	var names []string
	for _, w := range f.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, ","), "cold-web,warm-figures"; got != want {
		t.Errorf("workloads %s, want %s", got, want)
	}
	for _, w := range names {
		if _, ok := workloads[w]; !ok {
			t.Errorf("workload %s has no implementation", w)
		}
	}
	if len(f.EndToEnd) != len(endToEndMetrics) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in code", len(f.EndToEnd), len(endToEndMetrics))
	}
	for i, m := range f.EndToEnd {
		if m.Name != endToEndMetrics[i].name || m.Unit != endToEndMetrics[i].unit {
			t.Errorf("end_to_end[%d] = %s %s, code has %s %s", i, m.Name, m.Unit, endToEndMetrics[i].name, endToEndMetrics[i].unit)
		}
	}
	if len(f.PerLayer) != len(layerMetrics) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in code", len(f.PerLayer), len(layerMetrics))
	}
	for i, m := range f.PerLayer {
		if m.Name != layerMetrics[i].name || m.Unit != layerMetrics[i].unit {
			t.Errorf("per_layer[%d] = %s %s, code has %s %s", i, m.Name, m.Unit, layerMetrics[i].name, layerMetrics[i].unit)
		}
	}
}

func TestCheckerRejectsAlteredOutput(t *testing.T) {
	out := []byte("table\n1 2 3\n")
	sum := sha256.Sum256(out)
	c := &checker{digests: map[string]string{"k": hex.EncodeToString(sum[:])}, first: map[string][32]byte{}}
	if err := c.check("k", out); err != nil {
		t.Fatalf("matching output rejected: %v", err)
	}
	altered := append([]byte(nil), out...)
	altered[len(altered)-2] = '4'
	if err := c.check("k", altered); err == nil {
		t.Fatal("altered output accepted")
	}
	// Without a stored digest, a repeat must still equal the first output.
	c = &checker{first: map[string][32]byte{}}
	if err := c.check("r", out); err != nil {
		t.Fatal(err)
	}
	if err := c.check("r", altered); err == nil {
		t.Fatal("repeat differing from the first output accepted")
	}
	c = &checker{first: map[string][32]byte{}, alter: true}
	c.digests = map[string]string{"k": hex.EncodeToString(sum[:])}
	if err := c.check("k", out); err == nil {
		t.Fatal("-alter-output did not alter the output")
	}
}

func TestStoredDigestsCoverDefaultSeed(t *testing.T) {
	var all map[string]map[string]string
	if err := json.Unmarshal(storedDigests, &all); err != nil {
		t.Fatal(err)
	}
	for w := range workloads {
		if len(all[w]) == 0 {
			t.Errorf("no stored digests for %s", w)
		}
	}
	req, key := coldWebRequest(defaultSeed, 0)
	if _, ok := all["cold-web"][key]; !ok || req.Experiment != "fig3a" {
		t.Errorf("cold-web request 0 (%s) has no digest", key)
	}
}

func TestTail(t *testing.T) {
	var v []float64
	for i := 1; i <= 100; i++ {
		v = append(v, float64(i))
	}
	if val, p, beyond := tail(v); val != 90 || p != 90 || beyond != 10 {
		t.Errorf("tail of 1..100 = %v p%v beyond %d, want 90 p90 beyond 10", val, p, beyond)
	}
	if val, p, _ := tail(v[:10]); val != 5.5 || p != 50 {
		t.Errorf("tail of 1..10 = %v p%v, want the median 5.5 p50", val, p)
	}
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// runTiny builds the benchmark once and runs it in a scratch directory.
func runTiny(t *testing.T, bin string, args ...string) result {
	t.Helper()
	cmd := exec.Command(bin, args...)
	cmd.Dir = t.TempDir()
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("%v: %v\n%s%s", args, err, out, stderr.Bytes())
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("%v: last line: %v\n%s", args, err, out)
	}
	return r
}

func TestTinyRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload; about three minutes")
	}
	bin := filepath.Join(t.TempDir(), "perfbench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	f := loadBenchmarkFile(t)
	for _, w := range workloadNames() { // serve-mix too, though BENCHMARK.json leaves it out
		for _, tr := range []string{"0", "1"} {
			r := runTiny(t, bin, "--workload", w, "--seed", "1", "--seconds", "1", "--trace", tr)
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("%s trace %s: correct %v, %d failed of %d", w, tr, r.Correct, r.Failed, r.Attempted)
			}
			want := map[string]string{}
			if tr == "0" {
				for _, m := range f.EndToEnd {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range f.PerLayer {
					want[m.Name] = m.Unit
				}
			}
			if len(r.Metrics) != len(want) {
				t.Errorf("%s trace %s: %d metrics, want %d", w, tr, len(r.Metrics), len(want))
			}
			for name, unit := range want {
				if m, ok := r.Metrics[name]; !ok || m.Unit != unit {
					t.Errorf("%s trace %s: metric %s missing or not in %s", w, tr, name, unit)
				}
			}
		}
	}
	r := runTiny(t, bin, "--workload", "cold-web", "--seed", "1", "--seconds", "1", "-alter-output")
	if r.Correct || r.Failed == 0 {
		t.Errorf("altered output passed the check: correct %v, %d failed", r.Correct, r.Failed)
	}
}
