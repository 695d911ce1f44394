package fleet

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mobileqoe/internal/runlog"
	"mobileqoe/internal/runner"
)

// Options tunes the shard supervisor. The zero value is usable: GOMAXPROCS
// workers, no shard timeout, no retries, breaker at the default threshold.
// Nothing here can affect results — only scheduling, durability, and
// reporting.
type Options struct {
	// Parallel is the worker count (<=0: GOMAXPROCS, capped at the shard
	// count).
	Parallel int
	// ShardTimeout bounds one attempt's wall clock (0: unbounded). A timed-
	// out attempt counts as a failure and retries like any other.
	ShardTimeout time.Duration
	// Retries is how many times a failed shard is re-attempted beyond the
	// first try (total attempts = Retries+1).
	Retries int
	// BackoffBase/BackoffCap shape the exponential backoff between attempts
	// (defaults 100ms base, 5s cap).
	BackoffBase time.Duration
	BackoffCap  time.Duration
	// Breaker trips the circuit after this many CONSECUTIVE permanently-
	// failed shards: remaining shards are skipped (recorded, not run), on
	// the theory that an environment failing every shard will fail the rest
	// too. 0: default (8); negative: disabled. A single success resets the
	// count, closing the breaker.
	Breaker int
	// StopAfter, when >0, cancels the run after that many FRESH shard
	// completions — exactly as if the process had been interrupted then.
	// It exists so tests and CI can exercise the kill-mid-run path
	// deterministically without racing a real signal.
	StopAfter int
	// OnComplete runs on the worker goroutine after a shard succeeds and
	// BEFORE its completion is announced — the checkpoint-durability hook.
	// An error is treated as a failure of the attempt (the shard retries).
	OnComplete func(*ShardResult) error
	// Progress receives one event per shard in COMPLETION order, as it
	// happens — for live UIs (ETA bars).
	Progress func(Event)
	// Stream receives one event per shard in SHARD-INDEX order (contiguous-
	// prefix sequencing, like runner.Options.Stream) — for run logs, whose
	// cell order must be deterministic.
	Stream func(Event)
}

const defaultBreaker = 8

// Event reports one shard's outcome. Exactly one event is emitted per
// shard — restored, completed, failed, skipped, or aborted — so a Stream
// consumer always sees the full index sequence 0..Shards-1.
type Event struct {
	Shard      int
	Start, End int
	// Attempt is the attempt count consumed (0 for restored/skipped/aborted
	// before any attempt).
	Attempt int
	// Restored: loaded from a checkpoint. Skipped: breaker was open.
	Restored bool
	Skipped  bool
	// Err is set for failed, skipped, and aborted shards.
	Err error
	// Done/Total: progress numbering. In Progress events Done counts
	// completion order; in Stream events it is the contiguous flushed
	// prefix.
	Done, Total  int
	Tuples       int
	TuplesFailed int
	Elapsed      time.Duration
	// Result is set for restored and completed shards.
	Result *ShardResult
}

// Cell builds the run-log record for one shard of spec's fleet: one cell
// per shard, indexed by shard, seeded by the shard's first tuple. A
// restored shard reports the wall time its checkpoint recorded, not the
// near-zero time it took to load.
func (ev Event) Cell(spec *Spec) runlog.Cell {
	c := runlog.Cell{
		Index: ev.Shard, ID: "fleet:" + spec.Name, Trial: ev.Shard,
		Seed:    TupleSeed(spec.Seed, uint64(ev.Start)),
		Attempt: ev.Attempt, Status: "ok",
		WallMS:   float64(ev.Elapsed) / float64(time.Millisecond),
		Restored: ev.Restored,
	}
	if ev.Restored && ev.Result != nil {
		c.WallMS = ev.Result.WallMS
	}
	if ev.Err != nil {
		c.Status = "error"
		c.ErrorClass = runlog.ClassifyError(ev.Err)
		c.Error = ev.Err.Error()
	}
	return c
}

// ShardFailure records one permanently-failed shard in the run summary.
type ShardFailure struct {
	Shard    int
	Attempts int
	Err      error
}

// RunResult is the supervisor's outcome. Results holds restored+completed
// shards sorted by index; Merged is their exact fold. Completed counts
// fresh completions only.
type RunResult struct {
	Merged    *Merged
	Results   []*ShardResult
	Completed int
	Restored  int
	Failed    int
	Skipped   int
	Failures  []ShardFailure
	// Interrupted: the run was canceled (signal or StopAfter) before every
	// shard finished. The checkpoint holds what completed; resume with the
	// same spec picks up the rest.
	Interrupted bool
}

// Run supervises the fleet: restored shards are announced first (in index
// order), then workers draw the remaining shards from a shared counter.
// Each shard gets per-attempt timeouts, panic containment (runShardAttempt
// recovers), bounded retries with capped exponential backoff, and a
// consecutive-failure circuit breaker. Cancellation of ctx (signal,
// StopAfter) stops cleanly: in-flight attempts abort between tuples,
// un-run shards emit abort events, and the function returns with
// Interrupted set — it never abandons events mid-sequence.
func Run(parent context.Context, r *Runner, restored map[int]*ShardResult, opts Options) *RunResult {
	spec := r.Spec()
	total := spec.Shards
	par := opts.Parallel
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	if par > total {
		par = total
	}
	backoffBase := opts.BackoffBase
	if backoffBase <= 0 {
		backoffBase = 100 * time.Millisecond
	}
	backoffCap := opts.BackoffCap
	if backoffCap <= 0 {
		backoffCap = 5 * time.Second
	}
	breaker := opts.Breaker
	if breaker == 0 {
		breaker = defaultBreaker
	}
	maxAttempts := opts.Retries + 1

	ctx, cancel := context.WithCancel(parent)
	defer cancel()

	res := &RunResult{}
	var (
		mu            sync.Mutex // guards res, counters, and event emission
		doneCount     int
		consecFailed  int
		stopRequested bool
	)

	var seq *runner.Inorder[Event]
	if opts.Stream != nil {
		seq = runner.NewInorder(total, func(ev Event) {
			ev.Done = seq.Flushed()
			opts.Stream(ev)
		})
	}

	// emitLocked announces one shard outcome; callers hold mu so state
	// updates and their announcement are one atomic step.
	emitLocked := func(ev Event) {
		doneCount++
		ev.Total = total
		ev.Done = doneCount
		if opts.Progress != nil {
			opts.Progress(ev)
		}
		if seq != nil {
			seq.Put(ev.Shard, ev)
		}
	}

	mu.Lock()
	for _, k := range sortedKeys(restored) {
		sh := restored[k]
		res.Results = append(res.Results, sh)
		res.Restored++
		emitLocked(Event{
			Shard: k, Start: sh.Start, End: sh.End,
			Restored: true, Tuples: sh.Tuples, TuplesFailed: sh.TuplesFailed,
			Result: sh,
		})
	}
	mu.Unlock()

	var next int64 = -1
	var wg sync.WaitGroup
	for w := 0; w < par; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(atomic.AddInt64(&next, 1))
				if k >= total {
					return
				}
				if restored[k] != nil {
					continue // already announced above
				}
				start, end := ShardRange(spec.Population, spec.Shards, k)

				if err := ctx.Err(); err != nil {
					// Canceled before this shard started: announce the
					// abort so the event sequence stays complete, but it is
					// neither a failure nor a skip — resume will run it.
					mu.Lock()
					emitLocked(Event{Shard: k, Start: start, End: end,
						Err: fmt.Errorf("fleet: shard %d not run: %w", k, err)})
					mu.Unlock()
					continue
				}

				mu.Lock()
				tripped := breaker > 0 && consecFailed >= breaker
				nFailed := consecFailed
				mu.Unlock()
				if tripped {
					mu.Lock()
					res.Skipped++
					emitLocked(Event{Shard: k, Start: start, End: end, Skipped: true,
						Err: fmt.Errorf("fleet: shard %d skipped: circuit breaker open after %d consecutive shard failures", k, nFailed)})
					mu.Unlock()
					continue
				}

				began := time.Now()
				var sh *ShardResult
				var lastErr error
				attempts := 0
				for a := 1; a <= maxAttempts; a++ {
					attempts = a
					actx := ctx
					acancel := context.CancelFunc(func() {})
					if opts.ShardTimeout > 0 {
						actx, acancel = context.WithTimeout(ctx, opts.ShardTimeout)
					}
					sh, lastErr = runShardAttempt(actx, r, k, a)
					acancel()
					if lastErr == nil {
						sh.Attempts = attempts
						sh.WallMS = float64(time.Since(began)) / float64(time.Millisecond)
						if opts.OnComplete != nil {
							if cerr := opts.OnComplete(sh); cerr != nil {
								lastErr = fmt.Errorf("fleet: shard %d attempt %d checkpoint: %w", k, a, cerr)
								sh = nil
							}
						}
					}
					if lastErr == nil {
						break
					}
					if ctx.Err() != nil {
						break // canceled: aborting, not retrying
					}
					if a < maxAttempts {
						d := backoffBase << (a - 1)
						if d > backoffCap || d <= 0 {
							d = backoffCap
						}
						select {
						case <-time.After(d):
						case <-ctx.Done():
						}
					}
				}
				elapsed := time.Since(began)

				mu.Lock()
				switch {
				case lastErr == nil:
					consecFailed = 0
					res.Completed++
					res.Results = append(res.Results, sh)
					emitLocked(Event{Shard: k, Start: start, End: end,
						Attempt: attempts, Tuples: sh.Tuples, TuplesFailed: sh.TuplesFailed,
						Elapsed: elapsed, Result: sh})
					if opts.StopAfter > 0 && res.Completed >= opts.StopAfter && !stopRequested {
						stopRequested = true
						cancel()
					}
				case ctx.Err() != nil:
					// Aborted by cancellation mid-shard: not a failure.
					emitLocked(Event{Shard: k, Start: start, End: end,
						Attempt: attempts, Elapsed: elapsed,
						Err: fmt.Errorf("fleet: shard %d aborted: %w", k, lastErr)})
				default:
					consecFailed++
					res.Failed++
					res.Failures = append(res.Failures, ShardFailure{Shard: k, Attempts: attempts, Err: lastErr})
					emitLocked(Event{Shard: k, Start: start, End: end,
						Attempt: attempts, Elapsed: elapsed, Err: lastErr})
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()

	res.Interrupted = (parent.Err() != nil || stopRequested) &&
		res.Completed+res.Restored < total
	sort.Slice(res.Results, func(i, j int) bool { return res.Results[i].Shard < res.Results[j].Shard })
	res.Merged = MergeShards(res.Results)
	return res
}

func sortedKeys(m map[int]*ShardResult) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}
