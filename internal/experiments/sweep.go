package experiments

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"mobileqoe/internal/core"
	"mobileqoe/internal/cpu"
	"mobileqoe/internal/device"
	"mobileqoe/internal/mem"
	"mobileqoe/internal/netsim"
	"mobileqoe/internal/telephony"
	"mobileqoe/internal/units"
	"mobileqoe/internal/video"
	"mobileqoe/internal/webpage"
)

// Sweep is the one implementation of a single-axis device experiment: one
// device (or a device list), one workload, one swept axis, fixed
// configuration for everything else, one table row per axis point. The
// built-in figures fig2b–fig6 are Sweep literals (see sweeps.go), and
// scenario files (internal/scenario) decode into the same type through the
// same JSON vocabulary, so a file that mirrors a figure reproduces its table
// byte for byte.
type Sweep struct {
	// Name names the sweep; scenario files key their cell id on it.
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
	// Notes are appended to the table verbatim.
	Notes []string `json:"notes,omitempty"`
}

// Workload selects the application a cell runs and optionally overrides its
// duration parameter. A duration set for a different kind is a validation
// error — a typoed override must not be silently ignored. Fleet specs
// (internal/fleet) embed the same type, so sweeps and fleets share one
// vocabulary, one validator and one constructor.
type Workload struct {
	Kind   string  `json:"kind"`              // page | video | call | iperf
	ClipS  float64 `json:"clip_s,omitempty"`  // video: clip duration override
	CallS  float64 `json:"call_s,omitempty"`  // call: media duration override
	IperfS float64 `json:"iperf_s,omitempty"` // iperf: transfer duration override
}

// Axis is the swept parameter. Numeric axes (clock_mhz, cores, ram_mb) list
// Values; name axes (governor, network) list Names; the device axis takes
// its points from Sweep.Devices and lists neither.
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
// default".
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

// devices maps device keys to catalog constructors. Keys are slugs, not the
// marketing names the specs carry, so files stay grep-able.
var devices = map[string]func() device.Spec{
	"intex":  device.IntexAmaze,
	"gionee": device.GioneeF103,
	"nexus4": device.Nexus4,
	"s2tab":  device.GalaxyS2Tab,
	"pixelc": device.PixelC,
	"pixel2": device.Pixel2,
	"s6edge": device.GalaxyS6Edge,
}

// DeviceSpec resolves a device key to its catalog spec. Sweeps, scenario
// files and fleet specs (internal/fleet) validate against this one catalog.
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

// Validate checks the sweep and returns the first problem found. Messages
// do not name the sweep; callers prefix them with their own context.
func (s *Sweep) Validate() error {
	if s.Title == "" {
		return errors.New("title is required")
	}
	if err := s.Workload.Validate(); err != nil {
		return err
	}
	if err := s.validateDevices(); err != nil {
		return err
	}
	if err := s.Axis.validate(); err != nil {
		return err
	}
	if err := s.Config.validate(); err != nil {
		return err
	}
	if s.fixedSets(s.Axis.Param) {
		return fmt.Errorf("config fixes %q, which is also the swept axis", s.Axis.Param)
	}
	return s.validateHardware()
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
func (w Workload) Build(cfg Config, p *webpage.Page) core.Workload {
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

func (s *Sweep) validateDevices() error {
	if s.Axis.Param == axisDevice {
		if s.Device != "" || len(s.Devices) == 0 {
			return errors.New("the device axis takes its points from \"devices\" (and \"device\" must be empty)")
		}
		for _, d := range s.Devices {
			if _, ok := devices[d]; !ok {
				return fmt.Errorf("unknown device %q (want one of %v)", d, DeviceNames())
			}
		}
		return nil
	}
	if s.Device == "" || len(s.Devices) != 0 {
		return errors.New("exactly one \"device\" is required unless sweeping the device axis")
	}
	if _, ok := devices[s.Device]; !ok {
		return fmt.Errorf("unknown device %q (want one of %v)", s.Device, DeviceNames())
	}
	return nil
}

// HardwareError reports a clock, core count or RAM capacity that a device
// cannot have: the simulator models catalog hardware and does not
// extrapolate beyond it.
type HardwareError struct {
	Device   string  // catalog key
	Param    string  // clock_mhz, cores or ram_mb
	Value    float64 // the requested value
	Min, Max float64 // the device's range
	// MinOpen marks Min as excluded: RAM must exceed the OS reservation.
	MinOpen bool
}

func (e *HardwareError) Error() string {
	lo := "["
	if e.MinOpen {
		lo = "("
	}
	return fmt.Sprintf("%s %v is outside device %s's range %s%v, %v]", e.Param, e.Value, e.Device, lo, e.Min, e.Max)
}

// validateHardware checks every clock, core count and RAM capacity the
// sweep would run (fixed or swept) against every device it runs on.
func (s *Sweep) validateHardware() error {
	keys := s.Devices
	if s.Device != "" {
		keys = []string{s.Device}
	}
	clocks, cores := []float64{s.Config.ClockMHz}, []float64{float64(s.Config.Cores)}
	rams := []float64{s.Config.RAMMB}
	switch s.Axis.Param {
	case axisClock:
		clocks = s.Axis.Values
	case axisCores:
		cores = s.Axis.Values
	case axisRAM:
		rams = s.Axis.Values
	}
	osMB := float64(mem.DefaultOSReserved / units.MB)
	for _, k := range keys {
		spec := devices[k]()
		check := func(param string, vals []float64, lo, hi float64, open bool) error {
			for _, v := range vals {
				if v == 0 { // the device's default
					continue
				}
				if v < lo || v > hi || (open && v == lo) {
					return &HardwareError{Device: k, Param: param, Value: v, Min: lo, Max: hi, MinOpen: open}
				}
			}
			return nil
		}
		if err := check(axisClock, clocks, spec.MinFreq().MHz(), spec.MaxFreq().MHz(), false); err != nil {
			return err
		}
		if err := check(axisCores, cores, 1, float64(spec.TotalCores()), false); err != nil {
			return err
		}
		if err := check(axisRAM, rams, osMB, float64(spec.RAM/units.MB), true); err != nil {
			return err
		}
	}
	return nil
}

func (a Axis) validate() error {
	numeric := func() error {
		if len(a.Values) == 0 || len(a.Names) != 0 {
			return fmt.Errorf("axis %q sweeps numeric \"values\"", a.Param)
		}
		for _, v := range a.Values {
			if v <= 0 {
				return fmt.Errorf("axis %q value %v must be positive", a.Param, v)
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
				return fmt.Errorf("cores value %v is not an integer", v)
			}
		}
		return nil
	case axisGovernor:
		if len(a.Names) == 0 || len(a.Values) != 0 {
			return errors.New("the governor axis sweeps \"names\"")
		}
		for _, g := range a.Names {
			if !validGovernor(g) {
				return fmt.Errorf("unknown governor %q (want one of %v)", g, cpu.Governors())
			}
		}
		return nil
	case axisNetwork:
		if len(a.Names) == 0 || len(a.Values) != 0 {
			return errors.New("the network axis sweeps \"names\"")
		}
		for _, n := range a.Names {
			if _, ok := netsim.Profiles()[n]; !ok {
				return fmt.Errorf("unknown network profile %q", n)
			}
		}
		return nil
	case axisDevice:
		if len(a.Values) != 0 || len(a.Names) != 0 {
			return errors.New("the device axis lists its points in \"devices\"")
		}
		return nil
	case "":
		return errors.New("axis.param is required (clock_mhz|cores|ram_mb|governor|network|device)")
	default:
		return fmt.Errorf("unknown axis.param %q", a.Param)
	}
}

func (f Fixed) validate() error {
	if f.Governor != "" && !validGovernor(f.Governor) {
		return fmt.Errorf("unknown governor %q (want one of %v)", f.Governor, cpu.Governors())
	}
	if f.Network != "" {
		if _, ok := netsim.Profiles()[f.Network]; !ok {
			return fmt.Errorf("unknown network profile %q", f.Network)
		}
	}
	if f.ClockMHz < 0 || f.Cores < 0 || f.RAMMB < 0 {
		return errors.New("fixed config values must be positive")
	}
	return nil
}

// fixedSets reports whether the fixed config pins the named parameter.
func (s *Sweep) fixedSets(param string) bool {
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

// TableID is the id stamped on the produced table (ID, defaulting to Name).
func (s *Sweep) TableID() string {
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
func (s *Sweep) points() []point {
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
func (s *Sweep) axisColumn() string {
	if s.Axis.Column != "" {
		return s.Axis.Column
	}
	if s.Axis.Param == axisRAM {
		return "ram_gb" // rows print gigabytes
	}
	return s.Axis.Param
}

// columns is the full table header: the axis column, then the workload's
// metric columns.
func (s *Sweep) columns() []string {
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

// Runner compiles the sweep into a registry runner. The closure builds
// systems only through cfg.NewSystem, so trials, seeds, tracing, metrics,
// and fault injection behave the same for every sweep. A page sweep expands
// the corpus once per table and loads every page at every point.
func (s *Sweep) Runner() Runner {
	return func(cfg Config) (*Table, error) {
		t := &Table{ID: s.TableID(), Title: s.Title, Columns: s.columns()}
		var pages []*webpage.Page
		if s.Workload.Kind == "page" {
			pages = corpus(cfg)
		}
		for _, pt := range s.points() {
			row, err := s.measure(cfg, pt, pages)
			if err != nil {
				return nil, err
			}
			t.AddRow(row...)
		}
		t.Notes = append(t.Notes, s.Notes...)
		return t, nil
	}
}

// measure runs the sweep's workload at one axis point and formats the row.
func (s *Sweep) measure(cfg Config, pt point, pages []*webpage.Page) ([]string, error) {
	if s.Workload.Kind == "page" {
		agg, err := avgPLTOn(cfg, pt.spec, pages, pt.opts...)
		if err != nil {
			return nil, err
		}
		return []string{pt.label, meanStd(agg.Mean(), agg.Std())}, nil
	}
	res, err := cfg.NewSystem(pt.spec, pt.opts...).Run(s.Workload.Build(cfg, nil))
	if err != nil {
		return nil, err
	}
	switch s.Workload.Kind {
	case "video":
		m := res.Video
		return []string{pt.label, secs(m.StartupLatency), fmt.Sprintf("%.3f", m.StallRatio), m.Rung.Name}, nil
	case "call":
		m := res.Call
		return []string{pt.label, secs(m.SetupDelay), fps(m.FrameRate), m.Resolution.Name}, nil
	default: // iperf
		return []string{pt.label, mbps(res.Iperf.Throughput.Mbpsf())}, nil
	}
}
