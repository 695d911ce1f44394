package runner

import (
	"sync"

	"mobileqoe/internal/trace"
)

// Traces gives every cell attempt its own tracer (Factory plugs into
// experiments.Config.TraceFactory) and joins them into one combined trace.
// Each attempt writes only its own tracer, so worker count and completion
// order never reach the trace: Combined appends the tracers in cell order,
// attempt by attempt, which is the buffer one tracer shared by a sequential
// run would hold — failed and retried attempts included.
type Traces struct {
	mu    sync.Mutex
	cells map[string][]*trace.Tracer
}

// NewTraces returns an empty collector.
func NewTraces() *Traces { return &Traces{cells: map[string][]*trace.Tracer{}} }

// Factory hands one cell attempt a fresh tracer. A cell's attempts run one
// after another on one worker, so call order is attempt order. Safe for
// concurrent use.
func (c *Traces) Factory(id string, trial int) *trace.Tracer {
	tr := trace.New()
	c.mu.Lock()
	defer c.mu.Unlock()
	key := cellKey(id, trial)
	c.cells[key] = append(c.cells[key], tr)
	return tr
}

// Combined returns the cells of ids × trials appended in cell order
// (experiment-major, trial-minor, then attempt order). Cells that never
// started contribute nothing.
func (c *Traces) Combined(ids []string, trials int) *trace.Tracer {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := trace.New()
	for _, id := range ids {
		for t := 0; t < trials; t++ {
			for _, tr := range c.cells[cellKey(id, t)] {
				out.Append(tr)
			}
		}
	}
	return out
}
