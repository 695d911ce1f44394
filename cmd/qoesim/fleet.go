package main

import (
	"context"
	"fmt"
	"io"
	"time"

	"mobileqoe/cmd/internal/obsflag"
	"mobileqoe/internal/engine"
	"mobileqoe/internal/fleet"
)

// Exit codes for -fleet. 0 and 1 mean what they mean everywhere in qoesim;
// 3 is distinct so wrappers can tell "interrupted, checkpointed, resumable"
// from "failed" without parsing stderr.
const (
	exitOK          = 0
	exitFailed      = 1
	exitUsage       = 2
	exitInterrupted = 3
)

// fleetOpts carries the -fleet flag group into runFleet, which is kept free
// of flag.* and os.Exit so tests can drive it in-process (including the
// real-signal interrupt test). The embedded supervisor options carry
// -parallel, -retries, -shard-timeout and -fleet-stop-after straight to
// the executor.
type fleetOpts struct {
	fleet.Options
	specPath   string
	checkpoint string
	resume     bool
	shards     int // -fleet-shards override (0: spec value / manifest on resume)
	timeout    time.Duration
	csv        bool
	rlf        *obsflag.RunLogFlags

	stdout, stderr io.Writer
}

// runFleet executes one fleet run end to end through the engine's fleet
// executor — the same one qoesimd jobs use — and owns only what is the
// CLI's: signal handling, exit codes, and the stderr messages. It prints
// either the merged table (complete) or a resume hint (interrupted).
func runFleet(parent context.Context, o fleetOpts) int {
	if o.checkpoint == "" {
		fmt.Fprintln(o.stderr, "qoesim: -fleet requires -checkpoint <dir> (every fleet run is resumable)")
		return exitUsage
	}
	plan, err := engine.Compose(engine.Request{FleetPath: o.specPath, CSV: o.csv},
		engine.ComposeOptions{AllowLocalFiles: true})
	if err != nil {
		fmt.Fprintf(o.stderr, "qoesim: %v\n", err)
		return exitUsage
	}
	spec := plan.FleetSpec
	// One runlog cell per shard, in shard order; restored cells carry
	// Restored so readers and the ETA meter can tell replay from work.
	var rl *obsflag.RunLog
	o.Stream = func(ev fleet.Event) { rl.Cell(ev.Cell(spec)) }
	if !o.rlf.Progress.Enabled() {
		o.Progress = func(ev fleet.Event) {
			if ev.Total <= 1 {
				return
			}
			status := ""
			switch {
			case ev.Err != nil:
				status = " error: " + ev.Err.Error()
			case ev.Restored:
				status = " (restored)"
			}
			fmt.Fprintf(o.stderr, "qoesim: [%d/%d] shard %d tuples [%d,%d) (%v)%s\n",
				ev.Done, ev.Total, ev.Shard, ev.Start, ev.End,
				ev.Elapsed.Round(time.Millisecond), status)
		}
	}
	fr, err := engine.NewFleetRun(plan, o.shards, o.Options)
	if err != nil {
		fmt.Fprintf(o.stderr, "qoesim: %v\n", err)
		return exitUsage
	}
	restored, warnings, err := fr.OpenCheckpoint(o.checkpoint, o.resume)
	if err != nil {
		fmt.Fprintf(o.stderr, "qoesim: %v\n", err)
		return exitFailed
	}
	if o.resume {
		for _, w := range warnings {
			fmt.Fprintf(o.stderr, "qoesim: checkpoint: %s\n", w)
		}
		fmt.Fprintf(o.stderr, "qoesim: resuming fleet %s: %d/%d shards restored from %s\n",
			spec.Name, restored, spec.Shards, o.checkpoint)
	}

	// First signal cancels the run context: the supervisor aborts between
	// tuples, completed shards are already durable, and we exit 3 with a
	// resume hint. A second signal kills immediately (NotifyContext restores
	// the default handler after stop) — and even that loses nothing beyond
	// the in-flight shards, which is the invariant the package tests.
	ctx, stop := fleet.NotifyInterrupt(parent)
	defer stop()
	if o.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, o.timeout)
		defer cancel()
	}

	manifest := plan.Manifest
	manifest.Parallel = o.Parallel
	rl, err = o.rlf.Start("qoesim", spec.Shards, manifest)
	if err != nil {
		fmt.Fprintf(o.stderr, "qoesim: %v\n", err)
		return exitFailed
	}

	start := time.Now()
	res, err := fr.Execute(ctx)
	if res == nil {
		fmt.Fprintf(o.stderr, "qoesim: %v\n", err)
		return exitFailed
	}
	if res.Interrupted {
		if err != nil {
			fmt.Fprintf(o.stderr, "qoesim: %v\n", err)
		}
		if cerr := rl.CloseTruncated(); cerr != nil {
			fmt.Fprintf(o.stderr, "qoesim: runlog: %v\n", cerr)
		}
		fmt.Fprintf(o.stderr, "qoesim: fleet %s interrupted: %d/%d shards checkpointed in %s (%v); resume with: qoesim -fleet %s -checkpoint %s -resume\n",
			spec.Name, res.Completed+res.Restored, spec.Shards, o.checkpoint,
			time.Since(start).Round(time.Millisecond), o.specPath, o.checkpoint)
		return exitInterrupted
	}

	exit := exitOK
	if res.Failed > 0 || res.Skipped > 0 {
		for _, f := range res.Failures {
			fmt.Fprintf(o.stderr, "qoesim: fleet shard %d failed after %d attempts: %v\n", f.Shard, f.Attempts, f.Err)
		}
		if res.Skipped > 0 {
			fmt.Fprintf(o.stderr, "qoesim: fleet: %d shards skipped by the circuit breaker\n", res.Skipped)
		}
		exit = exitFailed
	}
	if err != nil {
		fmt.Fprintf(o.stderr, "qoesim: %v\n", err)
		exit = exitFailed
	}
	if cerr := rl.Close(); cerr != nil {
		fmt.Fprintf(o.stderr, "qoesim: runlog: %v\n", cerr)
		exit = exitFailed
	}
	o.stdout.Write(fr.Render(res, o.csv))
	fmt.Fprintf(o.stderr, "qoesim: fleet %s: %d tuples across %d shards (%d restored) in %v\n",
		spec.Name, res.Merged.Tuples, spec.Shards, res.Restored,
		time.Since(start).Round(time.Millisecond))
	return exit
}
