package runner

import "mobileqoe/internal/experiments"

// SetCellFn substitutes the cell-execution function for crash and timeout
// tests; it returns a restore function for the caller to defer.
func SetCellFn(fn func(id string, cfg experiments.Config, trial, attempt int) (*experiments.Table, error)) func() {
	old := cellFn
	cellFn = fn
	return func() { cellFn = old }
}

// Retained reports how many tracers the collector currently references
// (kept + in-flight); the memory-bound test pins this to ≤ K once the run
// has drained.
func (e *Exemplars) Retained() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.kept) + len(e.pending)
}
