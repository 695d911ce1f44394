package scenario_test

import (
	"errors"
	"strings"
	"testing"

	"mobileqoe/internal/experiments"
	"mobileqoe/internal/scenario"
)

// runScenario loads a checked-in scenario and runs every trial of it
// through RunTrialAttemptFn, the entry point Plan.Resolve-based harnesses
// use, merging the trials exactly like experiments.Run does.
func runScenario(t *testing.T, file string, cfg experiments.Config) *experiments.Table {
	t.Helper()
	s, err := scenario.Load(file)
	if err != nil {
		t.Fatalf("load %s: %v", file, err)
	}
	tabs := make([]*experiments.Table, cfg.WithDefaults().Trials)
	for trial := range tabs {
		if tabs[trial], err = experiments.RunTrialAttemptFn(s.RegistryID(), s.Runner(), cfg, trial, 0); err != nil {
			t.Fatalf("%s trial %d: %v", file, trial, err)
		}
	}
	return experiments.MergeTrials(tabs)
}

// TestWebSweepMatchesFig3a is the golden equivalence test for the tentpole:
// the checked-in web_sweep scenario must reproduce the built-in fig3a table
// byte for byte — same systems, same seeds, same formatting — proving the
// file format and the built-in fig3a declaration are the same experiment.
func TestWebSweepMatchesFig3a(t *testing.T) {
	cfg := experiments.Config{Pages: 2}
	want, err := experiments.Run("fig3a", cfg)
	if err != nil {
		t.Fatalf("fig3a: %v", err)
	}
	got := runScenario(t, "testdata/web_sweep.json", cfg)
	if got.String() != want.String() {
		t.Fatalf("scenario table diverges from fig3a:\n--- fig3a ---\n%s\n--- scenario ---\n%s",
			want.String(), got.String())
	}
	if got.CSV() != want.CSV() {
		t.Fatalf("scenario CSV diverges from fig3a:\n%s\nvs\n%s", want.CSV(), got.CSV())
	}
}

// TestVideoSweepMatchesFig4a is the second golden pair: the video clock
// sweep against the built-in fig4a.
func TestVideoSweepMatchesFig4a(t *testing.T) {
	cfg := experiments.Config{}
	want, err := experiments.Run("fig4a", cfg)
	if err != nil {
		t.Fatalf("fig4a: %v", err)
	}
	got := runScenario(t, "testdata/video_sweep.json", cfg)
	if got.String() != want.String() {
		t.Fatalf("scenario table diverges from fig4a:\n--- fig4a ---\n%s\n--- scenario ---\n%s",
			want.String(), got.String())
	}
}

// TestScenarioMultiTrialMerges checks a scenario behaves like a built-in
// under the trial machinery: trials derive distinct seeds and merge.
func TestScenarioMultiTrialMerges(t *testing.T) {
	tab := runScenario(t, "testdata/web_sweep.json", experiments.Config{Pages: 1, Trials: 2})
	if len(tab.Rows) == 0 {
		t.Fatal("merged scenario table has no rows")
	}
	// Merged multi-trial tables grow aggregate columns.
	if len(tab.Columns) <= 2 {
		t.Fatalf("expected merged trial columns, got %v", tab.Columns)
	}
}

func TestParseRejects(t *testing.T) {
	cases := map[string]string{
		"unknown field":     `{"name":"x","title":"t","device":"nexus4","workload":{"kind":"page"},"axis":{"param":"clock_mhz","values":[384]},"bogus":1}`,
		"trailing data":     `{"name":"x","title":"t","device":"nexus4","workload":{"kind":"page"},"axis":{"param":"clock_mhz","values":[384]}} {}`,
		"bad name":          `{"name":"Not A Slug","title":"t","device":"nexus4","workload":{"kind":"page"},"axis":{"param":"clock_mhz","values":[384]}}`,
		"missing title":     `{"name":"x","device":"nexus4","workload":{"kind":"page"},"axis":{"param":"clock_mhz","values":[384]}}`,
		"bad workload":      `{"name":"x","title":"t","device":"nexus4","workload":{"kind":"fax"},"axis":{"param":"clock_mhz","values":[384]}}`,
		"stray clip_s":      `{"name":"x","title":"t","device":"nexus4","workload":{"kind":"page","clip_s":9},"axis":{"param":"clock_mhz","values":[384]}}`,
		"unknown device":    `{"name":"x","title":"t","device":"iphone","workload":{"kind":"page"},"axis":{"param":"clock_mhz","values":[384]}}`,
		"missing device":    `{"name":"x","title":"t","workload":{"kind":"page"},"axis":{"param":"clock_mhz","values":[384]}}`,
		"bad axis param":    `{"name":"x","title":"t","device":"nexus4","workload":{"kind":"page"},"axis":{"param":"voltage","values":[1]}}`,
		"empty axis":        `{"name":"x","title":"t","device":"nexus4","workload":{"kind":"page"},"axis":{"param":"clock_mhz"}}`,
		"negative value":    `{"name":"x","title":"t","device":"nexus4","workload":{"kind":"page"},"axis":{"param":"clock_mhz","values":[-1]}}`,
		"fractional cores":  `{"name":"x","title":"t","device":"nexus4","workload":{"kind":"page"},"axis":{"param":"cores","values":[1.5]}}`,
		"bad governor":      `{"name":"x","title":"t","device":"nexus4","workload":{"kind":"page"},"axis":{"param":"governor","names":["TURBO"]}}`,
		"bad network":       `{"name":"x","title":"t","device":"nexus4","workload":{"kind":"page"},"axis":{"param":"network","names":["5g"]}}`,
		"device axis clash": `{"name":"x","title":"t","device":"nexus4","devices":["pixel2"],"workload":{"kind":"page"},"axis":{"param":"device"}}`,
		"axis vs fixed":     `{"name":"x","title":"t","device":"nexus4","workload":{"kind":"page"},"axis":{"param":"clock_mhz","values":[384]},"config":{"clock_mhz":1512}}`,
		"negative trials":   `{"name":"x","title":"t","device":"nexus4","workload":{"kind":"page"},"axis":{"param":"clock_mhz","values":[384]},"trials":-1}`,
		// Hardware the device cannot have: the Nexus 4 clocks 384-1512 MHz
		// on 4 cores, and the Intex Amaze+ tops out at 1300 MHz.
		"hw: clock below device": `{"name":"x","title":"t","device":"nexus4","workload":{"kind":"page"},"axis":{"param":"clock_mhz","values":[1]}}`,
		"hw: cores above device": `{"name":"x","title":"t","device":"nexus4","workload":{"kind":"page"},"axis":{"param":"cores","values":[4096]}}`,
		"hw: fixed clock":        `{"name":"x","title":"t","device":"nexus4","workload":{"kind":"page"},"axis":{"param":"cores","values":[2]},"config":{"clock_mhz":2000}}`,
		"hw: device axis clock":  `{"name":"x","title":"t","devices":["nexus4","intex"],"workload":{"kind":"page"},"axis":{"param":"device"},"config":{"clock_mhz":1512}}`,
		// RAM must exceed the OS reservation (300 MB) and fit the 2 GB the
		// Nexus 4 has installed; the Intex Amaze+ has 1 GB.
		"hw: ram at os reservation": `{"name":"x","title":"t","device":"nexus4","workload":{"kind":"page"},"axis":{"param":"ram_mb","values":[300,1024]}}`,
		"hw: ram above device":      `{"name":"x","title":"t","device":"nexus4","workload":{"kind":"page"},"axis":{"param":"ram_mb","values":[1024,100000]}}`,
		"hw: ram fixed":             `{"name":"x","title":"t","device":"nexus4","workload":{"kind":"page"},"axis":{"param":"clock_mhz","values":[384]},"config":{"ram_mb":4096}}`,
		"hw: ram on device axis":    `{"name":"x","title":"t","devices":["nexus4","intex"],"workload":{"kind":"page"},"axis":{"param":"device"},"config":{"ram_mb":2048}}`,
	}
	for label, in := range cases {
		_, err := scenario.Parse([]byte(in))
		if err == nil {
			t.Errorf("%s: Parse accepted %s", label, in)
			continue
		}
		if !strings.HasPrefix(label, "hw: ") {
			continue
		}
		var hw *experiments.HardwareError
		if !errors.As(err, &hw) {
			t.Errorf("%s: error %v is not a *experiments.HardwareError", label, err)
		} else if strings.HasPrefix(label, "hw: ram") && hw.Param != "ram_mb" {
			t.Errorf("%s: error %v names %q, want ram_mb", label, err, hw.Param)
		}
	}
}

func TestParseAcceptsAllAxes(t *testing.T) {
	cases := []string{
		`{"name":"a","title":"t","device":"nexus4","workload":{"kind":"page"},"axis":{"param":"clock_mhz","values":[384,1512]}}`,
		`{"name":"b","title":"t","device":"nexus4","workload":{"kind":"video","clip_s":30},"axis":{"param":"cores","values":[1,2,4]}}`,
		`{"name":"c","title":"t","device":"nexus4","workload":{"kind":"call","call_s":10},"axis":{"param":"ram_mb","values":[512,1024]}}`,
		`{"name":"d","title":"t","device":"nexus4","workload":{"kind":"iperf","iperf_s":5},"axis":{"param":"governor","names":["PF","PW"]}}`,
		`{"name":"e","title":"t","device":"nexus4","workload":{"kind":"page"},"axis":{"param":"network","names":["lan","lte","3g"]}}`,
		`{"name":"f","title":"t","devices":["nexus4","pixel2"],"workload":{"kind":"page"},"axis":{"param":"device"}}`,
		`{"name":"g","title":"t","device":"nexus4","workload":{"kind":"page"},"axis":{"param":"clock_mhz","values":[384]},"config":{"governor":"PF","cores":2,"ram_mb":1024,"network":"lte"}}`,
	}
	for _, in := range cases {
		s, err := scenario.Parse([]byte(in))
		if err != nil {
			t.Errorf("Parse rejected %s: %v", in, err)
			continue
		}
		// Expansion must produce one point per axis value and consistent rows.
		r := s.Runner()
		if r == nil {
			t.Errorf("%s: nil runner", s.Name)
		}
	}
}

func TestLoadResolvesFaultPlanPath(t *testing.T) {
	dir := t.TempDir()
	plan := dir + "/plan.json"
	if err := writeFile(plan, `{"faults":[{"kind":"burst-loss","at_ms":100,"dur_ms":500}]}`); err != nil {
		t.Fatal(err)
	}
	sc := dir + "/s.json"
	body := `{"name":"x","title":"t","device":"nexus4","workload":{"kind":"page"},"axis":{"param":"clock_mhz","values":[384]},"fault_plan":"plan.json"}`
	if err := writeFile(sc, body); err != nil {
		t.Fatal(err)
	}
	s, err := scenario.Load(sc)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if s.FaultPlan != plan {
		t.Fatalf("FaultPlan = %q, want %q (resolved against the scenario dir)", s.FaultPlan, plan)
	}
	if !strings.HasPrefix(s.RegistryID(), "scenario:") {
		t.Fatalf("registry id %q not namespaced", s.RegistryID())
	}
}
