// Package scenario is the file format for user-defined sweeps. A scenario
// file is an experiments.Sweep — the type the built-in figures fig2b–fig6
// are declared with, compiled by the same Sweep.Runner — plus the fields
// only a file carries: a fault-plan reference, a default trial count and
// SLO rules. A scenario that mirrors a built-in figure therefore reproduces
// its table byte for byte (see testdata/web_sweep.json vs fig3a), and a
// scenario that mirrors nothing is how user-defined sweeps enter the system
// without writing Go.
//
// Parsing follows fault.ParsePlan's discipline: unknown fields, trailing
// data, and invalid names all fail loudly at load time, never mid-run.
package scenario

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"

	"mobileqoe/internal/device"
	"mobileqoe/internal/experiments"
)

// Scenario is a validated, runnable sweep description.
type Scenario struct {
	// Sweep is the experiment itself; its fields are inlined into the
	// file's JSON object. Name keys the cell id ("scenario:<name>") and
	// must be a lowercase slug so it composes with file names and CLI
	// output.
	experiments.Sweep
	// FaultPlan references a fault.Plan JSON file, resolved relative to the
	// scenario file by Load. The harness (qoesim) attaches it to the run's
	// experiments.Config, so per-trial injector seeding works exactly as it
	// does for -faults.
	FaultPlan string `json:"fault_plan,omitempty"`
	// Trials is the scenario's default trial count; 0 defers to the harness.
	Trials int `json:"trials,omitempty"`
	// SLO maps registry metric names to online alert rules, evaluated cell by
	// cell against bounded aggregates (see Watchdog). A scenario without an
	// slo: block runs byte-identically to one that never heard of SLOs.
	SLO map[string]Rule `json:"slo,omitempty"`

	// SourceSHA256 is the hex SHA-256 of the scenario file bytes, set by
	// Load (empty for scenarios parsed from memory). Run logs record it so
	// an archived log pins the exact scenario revision it ran.
	SourceSHA256 string `json:"-"`
}

var nameRE = regexp.MustCompile(`^[a-z0-9][a-z0-9_-]*$`)

// DeviceSpec resolves a device key to its catalog spec
// (experiments.DeviceSpec).
func DeviceSpec(key string) (device.Spec, bool) { return experiments.DeviceSpec(key) }

// DeviceNames lists the accepted device keys, sorted
// (experiments.DeviceNames).
func DeviceNames() []string { return experiments.DeviceNames() }

// Parse decodes and validates a scenario. Unknown fields are rejected, so a
// typoed parameter fails loudly instead of silently sweeping nothing.
func Parse(data []byte) (*Scenario, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Scenario
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("scenario: parse: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("scenario: parse: trailing data after scenario object")
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Load reads and parses a scenario file. A relative FaultPlan reference is
// resolved against the file's directory.
func Load(path string) (*Scenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	s, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("scenario: %s: %w", path, err)
	}
	s.SourceSHA256 = fmt.Sprintf("%x", sha256.Sum256(data))
	if s.FaultPlan != "" && !filepath.IsAbs(s.FaultPlan) {
		s.FaultPlan = filepath.Join(filepath.Dir(path), s.FaultPlan)
	}
	return s, nil
}

// Validate checks the scenario and returns the first problem found.
func (s *Scenario) Validate() error {
	if !nameRE.MatchString(s.Name) {
		return fmt.Errorf("scenario: name %q must be a lowercase slug ([a-z0-9_-])", s.Name)
	}
	if s.Trials < 0 {
		return fmt.Errorf("scenario %s: trials %d is negative", s.Name, s.Trials)
	}
	if err := s.Sweep.Validate(); err != nil {
		return fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	return validateSLO(s.Name, s.SLO)
}

// RegistryID is the scenario's cell id, "scenario:<name>": the id a plan
// resolves to the scenario's runner, namespaced so a file can never collide
// with a built-in figure id.
func (s *Scenario) RegistryID() string { return "scenario:" + s.Name }
