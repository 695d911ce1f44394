package experiments_test

import (
	"encoding/json"
	"reflect"
	"testing"

	"mobileqoe/internal/cpu"
	"mobileqoe/internal/device"
	"mobileqoe/internal/experiments"
	"mobileqoe/internal/scenario"
)

// TestFigureSweepsAreValidScenarios round-trips every built-in sweep through
// the scenario file format: each must pass the exact validation a scenario
// file gets (name slug, hardware ranges included) and decode back to the
// same declaration.
func TestFigureSweepsAreValidScenarios(t *testing.T) {
	sweeps := experiments.FigureSweeps()
	if len(sweeps) != 15 {
		t.Fatalf("%d figure sweeps, want 15", len(sweeps))
	}
	for _, s := range sweeps {
		if experiments.Describe(s.Name) == "" {
			t.Errorf("%s: not registered", s.Name)
		}
		doc, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("%s: marshal: %v", s.Name, err)
		}
		sc, err := scenario.Parse(doc)
		if err != nil {
			t.Errorf("%s: rejected as a scenario file: %v", s.Name, err)
			continue
		}
		if !reflect.DeepEqual(sc.Sweep, s) {
			t.Errorf("%s: round trip changed the sweep:\n%+v\nvs\n%+v", s.Name, sc.Sweep, s)
		}
	}
}

// TestFigureSweepAxesMatchHardware pins the shared value lists to the
// tables they are copied from: the Nexus4 clock ladder, the governor list
// and the device catalog, each in its order.
func TestFigureSweepAxesMatchHardware(t *testing.T) {
	byName := map[string]experiments.Sweep{}
	for _, s := range experiments.FigureSweeps() {
		byName[s.Name] = s
	}
	var clocks []float64
	for _, f := range device.Nexus4FreqSteps() {
		clocks = append(clocks, f.MHz())
	}
	var govs []string
	for _, g := range cpu.Governors() {
		govs = append(govs, string(g))
	}
	var names []string
	for _, d := range device.Catalog() {
		names = append(names, d.Name)
	}
	for _, id := range []string{"fig3a", "fig4a", "fig5a", "fig6"} {
		if got := byName[id].Axis.Values; !reflect.DeepEqual(got, clocks) {
			t.Errorf("%s clocks %v, want %v", id, got, clocks)
		}
	}
	for _, id := range []string{"fig3d", "fig4d", "fig5d"} {
		if got := byName[id].Axis.Names; !reflect.DeepEqual(got, govs) {
			t.Errorf("%s governors %v, want %v", id, got, govs)
		}
	}
	for _, id := range []string{"fig2b", "fig2c"} {
		var got []string
		for _, k := range byName[id].Devices {
			spec, _ := experiments.DeviceSpec(k)
			got = append(got, spec.Name)
		}
		if !reflect.DeepEqual(got, names) {
			t.Errorf("%s devices %v, want catalog %v", id, got, names)
		}
	}
}
