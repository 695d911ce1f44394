// Command runtimestats runs a representative simulation workload (one traced
// fig3a trial) and prints one JSON line of Go runtime statistics — GC pauses,
// peak heap, total allocation — so scripts/bench.sh can archive allocator
// behavior next to the per-benchmark numbers. The workload is fixed and
// seeded, making archives comparable across commits.
//
// The snapshot block is runlog.RuntimeSnapshot — the same serializer the run
// log's health records use — so bench archives and -runlog output stay
// field-compatible by construction:
//
//	{"workload":"fig3a","num_gc":N,"gc_pause_total_ms":F,
//	 "peak_heap_bytes":N,"alloc_total_bytes":N,"heap_objects":N}
package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"mobileqoe/internal/experiments"
	"mobileqoe/internal/runlog"
	"mobileqoe/internal/trace"
)

func main() {
	cfg := experiments.Config{Seed: 1, Pages: 2,
		ClipDuration:  10 * time.Second,
		CallDuration:  5 * time.Second,
		IperfDuration: time.Second,
		// Tracing on: the allocation-heaviest path.
		TraceFactory: func(string, int) *trace.Tracer { return trace.New() },
		Metrics:      true,
	}
	if _, err := experiments.RunTrial("fig3a", cfg, 0); err != nil {
		fmt.Fprintf(os.Stderr, "runtimestats: %v\n", err)
		os.Exit(1)
	}
	out := struct {
		Workload string `json:"workload"`
		runlog.RuntimeSnapshot
	}{"fig3a", runlog.CaptureRuntime()}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "runtimestats: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("%s\n", b)
}
