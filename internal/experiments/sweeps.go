package experiments

// The paper's single-axis device figures, declared as sweeps: Fig. 2b/2c
// across the catalog, Fig. 3–5 over the Nexus4's clock, memory, cores and
// governor, and Fig. 6 over its clock. Each runs through Sweep.Runner, the
// same compiler scenario files use.

// Shared axis values.
var (
	// nexus4ClockMHz is the Nexus4's cpufreq ladder (device.Nexus4FreqSteps).
	nexus4ClockMHz = []float64{384, 486, 594, 702, 810, 918, 1026, 1134, 1242, 1350, 1458, 1512}
	// memoryMB is the RAM-disk squeeze of Fig. 3b/4b/5b: 0.5 to 2 GB.
	memoryMB = []float64{512, 1024, 1536, 2048}
	// nexus4Cores is every online-core count of the quad-core Nexus4.
	nexus4Cores = []float64{1, 2, 3, 4}
	// governors is cpu.Governors() in its order.
	governors = []string{"PF", "IN", "US", "OD", "PW"}
	// catalogKeys is device.Catalog() in its order, as device keys.
	catalogKeys = []string{"intex", "gionee", "nexus4", "s2tab", "pixelc", "pixel2", "s6edge"}
)

var (
	pageLoad    = Workload{Kind: "page"}
	videoStream = Workload{Kind: "video"}
	videoCall   = Workload{Kind: "call"}
	iperfRun    = Workload{Kind: "iperf"}

	clockAxis    = Axis{Param: axisClock, Values: nexus4ClockMHz}
	memoryAxis   = Axis{Param: axisRAM, Values: memoryMB}
	coresAxis    = Axis{Param: axisCores, Values: nexus4Cores}
	governorAxis = Axis{Param: axisGovernor, Names: governors}
	deviceAxis   = Axis{Param: axisDevice}

	performance = Fixed{Governor: "PF"}
)

// figureSweeps lists the declared figures with their -list descriptions.
var figureSweeps = []struct {
	desc  string
	sweep Sweep
}{
	{"Streaming startup latency and stall ratio across devices (Fig. 2b)", Sweep{
		Name: "fig2b", Title: "Video streaming QoE across devices (default governor)",
		Devices: catalogKeys, Workload: videoStream, Axis: deviceAxis,
		Notes: []string{
			"paper shape: startup grows ~2→5s from high-end to low-end; stall ratio ~0 everywhere;",
			"the low-end phone is served 480p, not FullHD"}}},
	{"Telephony frame rate across devices (Fig. 2c)", Sweep{
		Name: "fig2c", Title: "Video telephony frame rate across devices (default governor)",
		Devices: catalogKeys, Workload: videoCall, Axis: deviceAxis,
		Notes: []string{"paper shape: ~18 fps on the low-end phone up to 30 fps on the high-end"}}},

	{"Web PLT vs clock frequency on the Nexus4 (Fig. 3a)", Sweep{
		Name: "fig3a", Title: "Web PLT vs clock frequency (Nexus4, userspace governor)",
		Device: "nexus4", Workload: pageLoad, Axis: clockAxis,
		Notes: []string{"paper shape: ~4-5x PLT growth from 1512 to 384 MHz"}}},
	{"Web PLT vs memory capacity (Fig. 3b)", Sweep{
		Name: "fig3b", Title: "Web PLT vs memory capacity (Nexus4)",
		Device: "nexus4", Workload: pageLoad, Axis: memoryAxis, Config: performance,
		Notes: []string{"paper shape: ~2x PLT at 512 MB vs 2 GB, mild above 1 GB"}}},
	{"Web PLT vs number of cores (Fig. 3c)", Sweep{
		Name: "fig3c", Title: "Web PLT vs online cores (Nexus4)",
		Device: "nexus4", Workload: pageLoad, Axis: coresAxis, Config: performance,
		Notes: []string{"paper shape: only modest change — the browser uses no more than two cores"}}},
	{"Web PLT vs Android governor (Fig. 3d)", Sweep{
		Name: "fig3d", Title: "Web PLT vs Android governor (Nexus4)",
		Device: "nexus4", Workload: pageLoad, Axis: governorAxis,
		Notes: []string{"paper shape: powersave ≈ +50% over the others"}}},

	{"Streaming QoE vs clock frequency (Fig. 4a)", Sweep{
		Name: "fig4a", Title: "Streaming QoE vs clock (Nexus4, userspace governor)",
		Device: "nexus4", Workload: videoStream, Axis: clockAxis,
		Notes: []string{
			"paper shape: startup 1.2→3.5s as the clock drops; stall ratio stays ~0 (HW decode,",
			"parallel demux, 120s prefetch)"}}},
	{"Streaming QoE vs memory capacity (Fig. 4b)", Sweep{
		Name: "fig4b", Title: "Streaming QoE vs memory (Nexus4)",
		Device: "nexus4", Workload: videoStream, Axis: memoryAxis, Config: performance,
		Notes: []string{"paper shape: startup rises under the squeeze, stalls stay ~0"}}},
	{"Streaming QoE vs number of cores (Fig. 4c)", Sweep{
		Name: "fig4c", Title: "Streaming QoE vs online cores (Nexus4)",
		Device: "nexus4", Workload: videoStream, Axis: coresAxis,
		Notes: []string{
			"paper shape: the single-core configuration adds seconds of startup and ~15% stalls —",
			"the one case where video QoE visibly degrades"}}},
	{"Streaming QoE vs Android governor (Fig. 4d)", Sweep{
		Name: "fig4d", Title: "Streaming QoE vs governor (Nexus4)",
		Device: "nexus4", Workload: videoStream, Axis: governorAxis,
		Notes: []string{"paper shape: same trend as Web for startup, zero stalls throughout"}}},

	{"Telephony QoE vs clock frequency (Fig. 5a)", Sweep{
		Name: "fig5a", Title: "Telephony QoE vs clock (Nexus4, userspace governor)",
		Device: "nexus4", Workload: videoCall, Axis: clockAxis,
		Notes: []string{
			"paper shape: setup delay ≈5s→≈23s (an ~18s increase) and fps 30→~17 as the clock drops;",
			"the ABR steps the resolution down at slow clocks"}}},
	{"Telephony QoE vs memory capacity (Fig. 5b)", Sweep{
		Name: "fig5b", Title: "Telephony QoE vs memory (Nexus4)",
		Device: "nexus4", Workload: videoCall, Axis: memoryAxis, Config: performance,
		Notes: []string{"paper shape: mild memory sensitivity, like streaming"}}},
	{"Telephony QoE vs number of cores (Fig. 5c)", Sweep{
		Name: "fig5c", Title: "Telephony QoE vs online cores (Nexus4)",
		Device: "nexus4", Workload: videoCall, Axis: coresAxis,
		Notes: []string{"paper shape: fewer cores slow setup and shave the frame rate"}}},
	{"Telephony QoE vs Android governor (Fig. 5d)", Sweep{
		Name: "fig5d", Title: "Telephony QoE vs governor (Nexus4)",
		Device: "nexus4", Workload: videoCall, Axis: governorAxis,
		Notes: []string{"paper shape: powersave is the outlier"}}},

	{"TCP throughput vs clock frequency (Fig. 6)", Sweep{
		Name: "fig6", Title: "iperf TCP throughput vs clock (Nexus4, 72 Mbps AP)",
		Device: "nexus4", Workload: iperfRun, Axis: clockAxis,
		Notes: []string{
			"paper shape: ≈48 Mbps at 1512 MHz falling to ≈32 Mbps at 384 MHz, a second-order",
			"effect of charging packet processing to the CPU (see abl-packetcpu)"}}},
}

func init() {
	for i := range figureSweeps {
		s := &figureSweeps[i].sweep
		register(s.Name, figureSweeps[i].desc, s.Runner())
	}
}
