package placement

// SkewSpinCount plants the fault Validate exists to catch: unit u's
// spinning count drifts one away from what its rows say.
func (ix *Index) SkewSpinCount(u int) { ix.units[u].spinning++ }
