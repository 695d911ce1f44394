package runlog_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"mobileqoe/internal/core"
	"mobileqoe/internal/experiments"
	"mobileqoe/internal/fleet"
	"mobileqoe/internal/runlog"
	"mobileqoe/internal/runner"
	"mobileqoe/internal/trace"
)

// TestCellConverters pins the two cell builders — runner cells through
// runlog.CellFromEvent, fleet shards through fleet.Event.Cell — so every
// producer (qoesim, qoesimd jobs, fleets) writes the same record for the
// same outcome.
func TestCellConverters(t *testing.T) {
	reg := trace.NewMetrics()
	reg.Counter("sim.virtual_ms").Add(1234.5)
	reg.Counter("fault.injected").Add(3)
	reg.Counter("fault.recovered").Add(2)
	deadline := fmt.Errorf("fig3a trial 1: %w", core.ErrDeadline)
	aborted := fmt.Errorf("fleet: shard 5 aborted: %w", context.Canceled)
	spec := &fleet.Spec{Name: "pop", Seed: 7}

	cases := []struct {
		name string
		got  runlog.Cell
		want runlog.Cell
	}{
		{
			name: "ok cell with a registry",
			got: runlog.CellFromEvent(runner.Event{Index: 3, ID: "fig3a", Trial: 1, Seed: 1000001,
				Attempt: 1, Table: &experiments.Table{Metrics: reg}, Elapsed: 1500 * time.Millisecond}),
			want: runlog.Cell{Index: 3, ID: "fig3a", Trial: 1, Seed: 1000001, Attempt: 1, Status: "ok",
				WallMS: 1500, VirtualMS: 1234.5, FaultsInjected: 3, FaultsRecovered: 2},
		},
		{
			name: "ok cell without a registry",
			got:  runlog.CellFromEvent(runner.Event{ID: "table1", Table: &experiments.Table{}}),
			want: runlog.Cell{ID: "table1", Status: "ok"},
		},
		{
			name: "failed cell",
			got: runlog.CellFromEvent(runner.Event{Index: 4, ID: "fig3a", Trial: 2, Seed: 1000002,
				Attempt: 2, Err: deadline, Elapsed: 20 * time.Millisecond}),
			want: runlog.Cell{Index: 4, ID: "fig3a", Trial: 2, Seed: 1000002, Attempt: 2, Status: "error",
				ErrorClass: "deadline", Error: deadline.Error(), WallMS: 20},
		},
		{
			name: "fleet shard",
			got: fleet.Event{Shard: 2, Start: 20, End: 30, Attempt: 1, Elapsed: 250 * time.Millisecond,
				Result: &fleet.ShardResult{WallMS: 249}}.Cell(spec),
			want: runlog.Cell{Index: 2, ID: "fleet:pop", Trial: 2, Seed: fleet.TupleSeed(7, 20),
				Attempt: 1, Status: "ok", WallMS: 250},
		},
		{
			name: "restored fleet shard",
			got: fleet.Event{Shard: 0, Start: 0, End: 10, Restored: true, Elapsed: time.Microsecond,
				Result: &fleet.ShardResult{WallMS: 812.5, Restored: true}}.Cell(spec),
			want: runlog.Cell{Index: 0, ID: "fleet:pop", Trial: 0, Seed: fleet.TupleSeed(7, 0),
				Status: "ok", WallMS: 812.5, Restored: true},
		},
		{
			name: "aborted fleet shard",
			got:  fleet.Event{Shard: 5, Start: 50, End: 60, Err: aborted}.Cell(spec),
			want: runlog.Cell{Index: 5, ID: "fleet:pop", Trial: 5, Seed: fleet.TupleSeed(7, 50),
				Status: "error", ErrorClass: "canceled", Error: aborted.Error()},
		},
	}
	for _, tc := range cases {
		if tc.got != tc.want {
			t.Errorf("%s:\n got  %+v\n want %+v", tc.name, tc.got, tc.want)
		}
	}
}
