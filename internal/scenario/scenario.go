// Package scenario is the declarative front end to the experiment registry:
// it decodes a strict JSON description of a sweep — one device (or a device
// list), one workload, one swept axis, fixed configuration for everything
// else — and compiles it into an experiments.Runner that executes through
// the exact same cell grid, trial seeding, observability, and table
// formatting as the built-in figures. A scenario that mirrors a built-in
// experiment therefore reproduces its table byte for byte (see
// testdata/web_sweep.json vs fig3a), and a scenario that mirrors nothing is
// how user-defined sweeps enter the system without writing Go.
//
// Parsing follows fault.ParsePlan's discipline: unknown fields, trailing
// data, and invalid names all fail loudly at load time, never mid-run.
package scenario

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"time"

	"mobileqoe/internal/core"
	"mobileqoe/internal/cpu"
	"mobileqoe/internal/device"
	"mobileqoe/internal/experiments"
	"mobileqoe/internal/netsim"
	"mobileqoe/internal/stats"
	"mobileqoe/internal/telephony"
	"mobileqoe/internal/units"
	"mobileqoe/internal/video"
	"mobileqoe/internal/webpage"
)

// Scenario is a validated, runnable sweep description.
type Scenario struct {
	// Name keys the cell id ("scenario:<name>") and must be a
	// lowercase slug so it composes with file names and CLI output.
	Name string `json:"name"`
	// ID is the table id; it defaults to Name. A scenario mirroring a
	// built-in figure sets ID to that figure's id so the tables align.
	ID string `json:"id,omitempty"`
	// Title is the table title, printed verbatim.
	Title string `json:"title"`
	// Device names the device under test (see DeviceNames). Exactly one of
	// Device / Devices must be set; Devices is for the "device" axis.
	Device  string   `json:"device,omitempty"`
	Devices []string `json:"devices,omitempty"`
	// Workload selects what each cell runs.
	Workload Workload `json:"workload"`
	// Axis is the swept parameter: one table row per axis point.
	Axis Axis `json:"axis"`
	// Config fixes the non-swept parameters for every cell.
	Config Fixed `json:"config,omitempty"`
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
	// Notes are appended to the table verbatim.
	Notes []string `json:"notes,omitempty"`

	// SourceSHA256 is the hex SHA-256 of the scenario file bytes, set by
	// Load (empty for scenarios parsed from memory). Run logs record it so
	// an archived log pins the exact scenario revision it ran.
	SourceSHA256 string `json:"-"`
}

// Workload selects the application a cell runs and optionally overrides its
// duration parameter. A duration set for a different kind is a validation
// error — a typoed override must not be silently ignored. Fleet specs
// (internal/fleet) embed the same type, so both layers share one vocabulary,
// one validator and one constructor.
type Workload struct {
	Kind   string  `json:"kind"`              // page | video | call | iperf
	ClipS  float64 `json:"clip_s,omitempty"`  // video: clip duration override
	CallS  float64 `json:"call_s,omitempty"`  // call: media duration override
	IperfS float64 `json:"iperf_s,omitempty"` // iperf: transfer duration override
}

// Axis is the swept parameter. Numeric axes (clock_mhz, cores, ram_mb) list
// Values; name axes (governor, network) list Names; the device axis takes
// its points from Scenario.Devices and lists neither.
type Axis struct {
	Param  string    `json:"param"`
	Values []float64 `json:"values,omitempty"`
	Names  []string  `json:"names,omitempty"`
	// Column overrides the axis column header; the default is Param, except
	// ram_mb, whose rows print gigabytes and default to "ram_gb" like the
	// built-in memory figures.
	Column string `json:"column,omitempty"`
}

// Fixed pins the non-swept configuration axes. Zero values mean "device
// default", matching the built-in figures' behavior.
type Fixed struct {
	Governor string  `json:"governor,omitempty"` // PF | IN | US | OD | PW
	ClockMHz float64 `json:"clock_mhz,omitempty"`
	Cores    int     `json:"cores,omitempty"`
	RAMMB    float64 `json:"ram_mb,omitempty"`
	Network  string  `json:"network,omitempty"` // lan | lte | 3g
}

const (
	axisClock    = "clock_mhz"
	axisCores    = "cores"
	axisRAM      = "ram_mb"
	axisGovernor = "governor"
	axisNetwork  = "network"
	axisDevice   = "device"
)

var nameRE = regexp.MustCompile(`^[a-z0-9][a-z0-9_-]*$`)

// devices maps scenario device keys to catalog constructors. Keys are slugs,
// not the marketing names the specs carry, so files stay grep-able.
var devices = map[string]func() device.Spec{
	"intex":  device.IntexAmaze,
	"gionee": device.GioneeF103,
	"nexus4": device.Nexus4,
	"s2tab":  device.GalaxyS2Tab,
	"pixelc": device.PixelC,
	"pixel2": device.Pixel2,
	"s6edge": device.GalaxyS6Edge,
}

// DeviceSpec resolves a device key to its catalog spec. The key vocabulary
// is shared by scenarios and fleet specs (internal/fleet), so both layers
// validate against one catalog.
func DeviceSpec(key string) (device.Spec, bool) {
	fn, ok := devices[key]
	if !ok {
		return device.Spec{}, false
	}
	return fn(), true
}

// DeviceNames lists the accepted device keys, sorted, for error messages and
// docs.
func DeviceNames() []string {
	out := make([]string, 0, len(devices))
	for k := range devices {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

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
	if s.Title == "" {
		return fmt.Errorf("scenario %s: title is required", s.Name)
	}
	if s.Trials < 0 {
		return fmt.Errorf("scenario %s: trials %d is negative", s.Name, s.Trials)
	}
	if err := s.Workload.Validate(); err != nil {
		return fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	if err := s.validateDevices(); err != nil {
		return err
	}
	if err := s.Axis.validate(s.Name); err != nil {
		return err
	}
	if err := s.Config.validate(s.Name); err != nil {
		return err
	}
	if s.fixedSets(s.Axis.Param) {
		return fmt.Errorf("scenario %s: config fixes %q, which is also the swept axis", s.Name, s.Axis.Param)
	}
	if err := s.validateHardware(); err != nil {
		return fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	return validateSLO(s.Name, s.SLO)
}

// Validate checks the kind and that duration overrides match it.
func (w Workload) Validate() error {
	switch w.Kind {
	case "page", "video", "call", "iperf":
	case "":
		return errors.New("workload kind is required (page|video|call|iperf)")
	default:
		return fmt.Errorf("unknown workload kind %q (want page|video|call|iperf)", w.Kind)
	}
	if w.ClipS != 0 && w.Kind != "video" {
		return errors.New("clip_s only applies to the video workload")
	}
	if w.CallS != 0 && w.Kind != "call" {
		return errors.New("call_s only applies to the call workload")
	}
	if w.IperfS != 0 && w.Kind != "iperf" {
		return errors.New("iperf_s only applies to the iperf workload")
	}
	if w.ClipS < 0 || w.CallS < 0 || w.IperfS < 0 {
		return errors.New("workload durations must be positive")
	}
	return nil
}

// Build returns the core workload one cell runs: page loads p, and the
// timed kinds take their duration from cfg unless the workload overrides it.
func (w Workload) Build(cfg experiments.Config, p *webpage.Page) core.Workload {
	override := func(d time.Duration, s float64) time.Duration {
		if s > 0 {
			return time.Duration(s * float64(time.Second))
		}
		return d
	}
	switch w.Kind {
	case "page":
		return core.PageLoad{Page: p}
	case "video":
		return core.VideoStream{Config: video.StreamConfig{Duration: override(cfg.ClipDuration, w.ClipS)}}
	case "call":
		return core.CallWorkload{Config: telephony.CallConfig{Duration: override(cfg.CallDuration, w.CallS)}}
	default: // iperf
		return core.IperfWorkload{Duration: override(cfg.IperfDuration, w.IperfS)}
	}
}

func (s *Scenario) validateDevices() error {
	if s.Axis.Param == axisDevice {
		if s.Device != "" || len(s.Devices) == 0 {
			return fmt.Errorf("scenario %s: the device axis takes its points from \"devices\" (and \"device\" must be empty)", s.Name)
		}
		for _, d := range s.Devices {
			if _, ok := devices[d]; !ok {
				return fmt.Errorf("scenario %s: unknown device %q (want one of %v)", s.Name, d, DeviceNames())
			}
		}
		return nil
	}
	if s.Device == "" || len(s.Devices) != 0 {
		return fmt.Errorf("scenario %s: exactly one \"device\" is required unless sweeping the device axis", s.Name)
	}
	if _, ok := devices[s.Device]; !ok {
		return fmt.Errorf("scenario %s: unknown device %q (want one of %v)", s.Name, s.Device, DeviceNames())
	}
	return nil
}

// HardwareError reports a clock or core count that a device cannot have:
// the simulator models catalog hardware and does not extrapolate beyond it.
type HardwareError struct {
	Device   string  // catalog key
	Param    string  // clock_mhz or cores
	Value    float64 // the requested value
	Min, Max float64 // the device's range
}

func (e *HardwareError) Error() string {
	return fmt.Sprintf("%s %v is outside device %s's range [%v, %v]", e.Param, e.Value, e.Device, e.Min, e.Max)
}

// validateHardware checks every clock and core count the scenario would run
// (fixed or swept) against every device it runs on.
func (s *Scenario) validateHardware() error {
	keys := s.Devices
	if s.Device != "" {
		keys = []string{s.Device}
	}
	clocks, cores := []float64{s.Config.ClockMHz}, []float64{float64(s.Config.Cores)}
	switch s.Axis.Param {
	case axisClock:
		clocks = s.Axis.Values
	case axisCores:
		cores = s.Axis.Values
	}
	for _, k := range keys {
		spec := devices[k]()
		check := func(param string, vals []float64, lo, hi float64) error {
			for _, v := range vals {
				if v != 0 && (v < lo || v > hi) { // 0: the device's default
					return &HardwareError{Device: k, Param: param, Value: v, Min: lo, Max: hi}
				}
			}
			return nil
		}
		if err := check(axisClock, clocks, spec.MinFreq().MHz(), spec.MaxFreq().MHz()); err != nil {
			return err
		}
		if err := check(axisCores, cores, 1, float64(spec.TotalCores())); err != nil {
			return err
		}
	}
	return nil
}

func (a Axis) validate(name string) error {
	numeric := func() error {
		if len(a.Values) == 0 || len(a.Names) != 0 {
			return fmt.Errorf("scenario %s: axis %q sweeps numeric \"values\"", name, a.Param)
		}
		for _, v := range a.Values {
			if v <= 0 {
				return fmt.Errorf("scenario %s: axis %q value %v must be positive", name, a.Param, v)
			}
		}
		return nil
	}
	switch a.Param {
	case axisClock, axisRAM:
		return numeric()
	case axisCores:
		if err := numeric(); err != nil {
			return err
		}
		for _, v := range a.Values {
			if v != float64(int(v)) {
				return fmt.Errorf("scenario %s: cores value %v is not an integer", name, v)
			}
		}
		return nil
	case axisGovernor:
		if len(a.Names) == 0 || len(a.Values) != 0 {
			return fmt.Errorf("scenario %s: the governor axis sweeps \"names\"", name)
		}
		for _, g := range a.Names {
			if !validGovernor(g) {
				return fmt.Errorf("scenario %s: unknown governor %q (want one of %v)", name, g, cpu.Governors())
			}
		}
		return nil
	case axisNetwork:
		if len(a.Names) == 0 || len(a.Values) != 0 {
			return fmt.Errorf("scenario %s: the network axis sweeps \"names\"", name)
		}
		for _, n := range a.Names {
			if _, ok := netsim.Profiles()[n]; !ok {
				return fmt.Errorf("scenario %s: unknown network profile %q", name, n)
			}
		}
		return nil
	case axisDevice:
		if len(a.Values) != 0 || len(a.Names) != 0 {
			return fmt.Errorf("scenario %s: the device axis lists its points in \"devices\"", name)
		}
		return nil
	case "":
		return fmt.Errorf("scenario %s: axis.param is required (clock_mhz|cores|ram_mb|governor|network|device)", name)
	default:
		return fmt.Errorf("scenario %s: unknown axis.param %q", name, a.Param)
	}
}

func (f Fixed) validate(name string) error {
	if f.Governor != "" && !validGovernor(f.Governor) {
		return fmt.Errorf("scenario %s: unknown governor %q (want one of %v)", name, f.Governor, cpu.Governors())
	}
	if f.Network != "" {
		if _, ok := netsim.Profiles()[f.Network]; !ok {
			return fmt.Errorf("scenario %s: unknown network profile %q", name, f.Network)
		}
	}
	if f.ClockMHz < 0 || f.Cores < 0 || f.RAMMB < 0 {
		return fmt.Errorf("scenario %s: fixed config values must be positive", name)
	}
	return nil
}

// fixedSets reports whether the fixed config pins the named parameter.
func (s *Scenario) fixedSets(param string) bool {
	switch param {
	case axisClock:
		return s.Config.ClockMHz != 0
	case axisCores:
		return s.Config.Cores != 0
	case axisRAM:
		return s.Config.RAMMB != 0
	case axisGovernor:
		return s.Config.Governor != ""
	case axisNetwork:
		return s.Config.Network != ""
	}
	return false
}

func validGovernor(g string) bool {
	for _, k := range cpu.Governors() {
		if string(k) == g {
			return true
		}
	}
	return false
}

// RegistryID is the scenario's cell id, "scenario:<name>": the id a plan
// resolves to the scenario's runner, namespaced so a file can never collide
// with a built-in figure id.
func (s *Scenario) RegistryID() string { return "scenario:" + s.Name }

// TableID is the id stamped on the produced table (ID, defaulting to Name).
func (s *Scenario) TableID() string {
	if s.ID != "" {
		return s.ID
	}
	return s.Name
}

// point is one expanded axis position: its row label and the device/options
// it measures.
type point struct {
	label string
	spec  device.Spec
	opts  []core.Option
}

// points expands the axis against the fixed configuration. Fixed options
// come first so the swept option wins if they ever overlap (validation
// forbids the overlap, so this is belt and braces).
func (s *Scenario) points() []point {
	base := s.Config.options()
	spec := func() device.Spec {
		if s.Device != "" {
			return devices[s.Device]()
		}
		return device.Spec{} // device axis: per-point specs below
	}
	var pts []point
	add := func(label string, spec device.Spec, opt ...core.Option) {
		pts = append(pts, point{label: label, spec: spec,
			opts: append(append([]core.Option{}, base...), opt...)})
	}
	switch s.Axis.Param {
	case axisClock:
		for _, v := range s.Axis.Values {
			add(fmt.Sprintf("%.0f", v), spec(), core.WithClock(units.MHz(v)))
		}
	case axisCores:
		for _, v := range s.Axis.Values {
			add(fmt.Sprintf("%d", int(v)), spec(), core.WithCores(int(v)))
		}
	case axisRAM:
		for _, v := range s.Axis.Values {
			ram := units.ByteSize(v) * units.MB
			add(fmt.Sprintf("%.1f", ram.GBf()), spec(), core.WithRAM(ram))
		}
	case axisGovernor:
		for _, g := range s.Axis.Names {
			add(g, spec(), core.WithGovernor(cpu.GovernorKind(g)))
		}
	case axisNetwork:
		for _, n := range s.Axis.Names {
			add(n, spec(), core.WithNetwork(netsim.Profiles()[n]))
		}
	case axisDevice:
		for _, d := range s.Devices {
			sp := devices[d]()
			add(sp.Name, sp)
		}
	}
	return pts
}

// options translates the fixed configuration into core options.
func (f Fixed) options() []core.Option {
	var opts []core.Option
	if f.Governor != "" {
		opts = append(opts, core.WithGovernor(cpu.GovernorKind(f.Governor)))
	}
	if f.ClockMHz != 0 {
		opts = append(opts, core.WithClock(units.MHz(f.ClockMHz)))
	}
	if f.Cores != 0 {
		opts = append(opts, core.WithCores(f.Cores))
	}
	if f.RAMMB != 0 {
		opts = append(opts, core.WithRAM(units.ByteSize(f.RAMMB)*units.MB))
	}
	if f.Network != "" {
		opts = append(opts, core.WithNetwork(netsim.Profiles()[f.Network]))
	}
	return opts
}

// axisColumn is the header over the row labels.
func (s *Scenario) axisColumn() string {
	if s.Axis.Column != "" {
		return s.Axis.Column
	}
	if s.Axis.Param == axisRAM {
		return "ram_gb" // rows print gigabytes, like fig3b/fig4b/fig5b
	}
	return s.Axis.Param
}

// columns is the full table header for the scenario's workload. The
// per-workload metric columns match the built-in figures headed by the same
// workload, which is what makes a mirroring scenario byte-identical.
func (s *Scenario) columns() []string {
	switch s.Workload.Kind {
	case "page":
		return []string{s.axisColumn(), "plt_s(mean±std)"}
	case "video":
		return []string{s.axisColumn(), "startup_s", "stall_ratio", "resolution"}
	case "call":
		return []string{s.axisColumn(), "setup_s", "fps", "resolution"}
	default: // iperf
		return []string{s.axisColumn(), "throughput_mbps"}
	}
}

// Runner compiles the scenario into a registry runner. The closure builds
// systems only through cfg.NewSystem, so trials, seeds, tracing, metrics,
// and fault injection behave exactly as they do for built-in experiments.
func (s *Scenario) Runner() experiments.Runner {
	return func(cfg experiments.Config) (*experiments.Table, error) {
		t := &experiments.Table{ID: s.TableID(), Title: s.Title, Columns: s.columns()}
		for _, pt := range s.points() {
			row, err := s.measure(cfg, pt)
			if err != nil {
				return nil, err
			}
			t.AddRow(row...)
		}
		t.Notes = append(t.Notes, s.Notes...)
		return t, nil
	}
}

// measure runs the scenario's workload at one axis point and formats the row.
func (s *Scenario) measure(cfg experiments.Config, pt point) ([]string, error) {
	if s.Workload.Kind == "page" {
		var agg stats.Sample
		for _, p := range cfg.Corpus() {
			res, err := cfg.NewSystem(pt.spec, pt.opts...).Run(s.Workload.Build(cfg, p))
			if err != nil {
				return nil, err
			}
			agg.Add(res.Page.PLT.Seconds())
		}
		return []string{pt.label, experiments.FmtMeanStd(agg.Mean(), agg.Std())}, nil
	}
	res, err := cfg.NewSystem(pt.spec, pt.opts...).Run(s.Workload.Build(cfg, nil))
	if err != nil {
		return nil, err
	}
	switch s.Workload.Kind {
	case "video":
		m := res.Video
		return []string{pt.label, experiments.FmtSecs(m.StartupLatency),
			fmt.Sprintf("%.3f", m.StallRatio), m.Rung.Name}, nil
	case "call":
		m := res.Call
		return []string{pt.label, experiments.FmtSecs(m.SetupDelay),
			experiments.FmtFPS(m.FrameRate), m.Resolution.Name}, nil
	default: // iperf
		return []string{pt.label, experiments.FmtMbps(res.Iperf.Throughput.Mbpsf())}, nil
	}
}
