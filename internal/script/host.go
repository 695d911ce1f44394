package script

import (
	"mobileqoe/internal/rex"
)

// defaultHost evaluates regexes with the Pike VM and no accounting; it keeps
// scripts runnable when no profiling host is installed.
type defaultHost struct{}

func (defaultHost) ExecRegex(pattern, input string) (bool, int, int, error) {
	p, err := rex.Compile(pattern)
	if err != nil {
		return false, 0, 0, err
	}
	r := p.Run(input)
	return r.Matched, r.Start, r.End, nil
}

// RegexCall records one regex evaluation observed during script execution,
// priced on both engines so the offload study can replay the same workload
// on the CPU (backtracking) and on the DSP (Pike VM).
type RegexCall struct {
	Pattern   string
	InputLen  int
	Matched   bool
	BTSteps   int64 // backtracking-engine steps (CPU baseline)
	PikeSteps int64 // Pike-VM steps (DSP execution)
}

// CountingHost executes regexes with both engines and records every call.
// It returns Pike VM results to the script (the engines agree on match
// semantics; the Pike VM never blows up). When the backtracker hits its step
// limit, the recorded BTSteps is the limit itself — exactly the
// pathological-cost case that motivates offloading to a linear-time engine.
type CountingHost struct {
	Calls []RegexCall
	cache map[string]*rex.Prog
	// BacktrackLimit bounds CPU-side pricing; 0 uses rex's default.
	BacktrackLimit int64
}

// NewCountingHost returns an empty recording host.
func NewCountingHost() *CountingHost {
	return &CountingHost{cache: map[string]*rex.Prog{}}
}

// ExecRegex implements RegexHost.
func (h *CountingHost) ExecRegex(pattern, input string) (bool, int, int, error) {
	p, ok := h.cache[pattern]
	if !ok {
		var err error
		p, err = rex.Compile(pattern)
		if err != nil {
			return false, 0, 0, err
		}
		h.cache[pattern] = p
	}
	pr := p.Run(input)
	br, err := p.RunBacktrack(input, h.BacktrackLimit)
	bt := br.Steps
	if err != nil {
		// Step limit exhausted: price the call at the budget it burned.
		bt = br.Steps
	}
	h.Calls = append(h.Calls, RegexCall{
		Pattern:   pattern,
		InputLen:  len(input),
		Matched:   pr.Matched,
		BTSteps:   bt,
		PikeSteps: pr.Steps,
	})
	return pr.Matched, pr.Start, pr.End, nil
}

// Reset clears recorded calls (the pattern cache is kept).
func (h *CountingHost) Reset() { h.Calls = h.Calls[:0] }
