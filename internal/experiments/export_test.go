package experiments

// FigureSweeps returns the declared figure sweeps, for the external tests.
func FigureSweeps() []Sweep {
	out := make([]Sweep, len(figureSweeps))
	for i, f := range figureSweeps {
		out[i] = f.sweep
	}
	return out
}
