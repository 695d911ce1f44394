package engine

import (
	"context"

	"mobileqoe/internal/fleet"
)

// FleetRun is a fleet plan compiled for execution — the one fleet executor
// behind both qoesim -fleet and Engine jobs. A checkpoint is an in-process
// option (OpenCheckpoint): no Request or Config field reaches it, so a
// served request can never name a server-side directory.
type FleetRun struct {
	spec     *fleet.Spec
	shards   int // override; 0 keeps the spec's (or on resume the checkpoint's)
	opts     fleet.Options
	runner   *fleet.Runner
	cp       *fleet.Checkpoint
	restored map[int]*fleet.ShardResult
}

// NewFleetRun applies a shard-count override (0 keeps the spec's) to the
// fleet plan p's spec and compiles it. Its errors are all spec errors. opts supplies
// the supervisor's scheduling and reporting; a checkpoint sets OnComplete.
func NewFleetRun(p *Plan, shards int, opts fleet.Options) (*FleetRun, error) {
	spec := p.FleetSpec
	if shards > 0 {
		spec.Shards = shards
		if err := spec.Validate(); err != nil {
			return nil, err
		}
	}
	r, err := spec.Compile()
	if err != nil {
		return nil, err
	}
	return &FleetRun{spec: spec, shards: shards, opts: opts, runner: r}, nil
}

// OpenCheckpoint attaches the checkpoint directory dir: a fresh one, or with
// resume the directory of an interrupted run. Resuming adopts the
// checkpoint's partition unless NewFleetRun overrode it, and restores every
// intact shard; it reports how many, plus a warning per shard file it had
// to skip (those shards simply run again).
func (f *FleetRun) OpenCheckpoint(dir string, resume bool) (restored int, warnings []string, err error) {
	if !resume {
		f.cp, err = fleet.Create(dir, f.spec)
		return 0, nil, err
	}
	if f.shards == 0 {
		m, err := fleet.ReadManifest(dir)
		if err != nil {
			return 0, nil, err
		}
		f.spec.Shards = m.Shards
		if err := f.spec.Validate(); err != nil {
			return 0, nil, err
		}
	}
	f.cp, f.restored, warnings, err = fleet.Open(dir, f.spec)
	return len(f.restored), warnings, err
}

// Execute supervises the shards until they finish or ctx is canceled. With
// a checkpoint attached, every completed shard is durable before it is
// announced, the run state is recorded before and after, and a complete
// run writes final.json. An error with a nil result means the run never
// started; an error with a result is a checkpoint write failing after it.
func (f *FleetRun) Execute(ctx context.Context) (*fleet.RunResult, error) {
	if f.cp != nil {
		f.opts.OnComplete = f.cp.WriteShard
		if err := f.cp.WriteState(fleet.RunState{Status: "running", Restored: len(f.restored)}); err != nil {
			return nil, err
		}
	}
	res := fleet.Run(ctx, f.runner, f.restored, f.opts)
	if f.cp == nil {
		return res, nil
	}
	state := fleet.RunState{Status: "complete", Completed: res.Completed, Restored: res.Restored,
		Failed: res.Failed, Skipped: res.Skipped}
	var err error
	switch {
	case res.Interrupted:
		state.Status = "interrupted"
	case res.Failed > 0 || res.Skipped > 0:
		state.Status = "failed"
	default:
		err = f.cp.WriteFinal(res.Merged)
	}
	if serr := f.cp.WriteState(state); err == nil {
		err = serr
	}
	return res, err
}

// Render renders a run's merged table as qoesim prints it.
func (f *FleetRun) Render(res *fleet.RunResult, csv bool) []byte {
	return renderTable(res.Merged.Table(f.spec), csv)
}
