// Stub of the real metrics package for the ledgerpair fixtures.
package metrics

// GoodputMeter tallies served and dropped samples.
type GoodputMeter struct{ Served int }

// ServeOK credits n on-time completions at virtual time t.
func (g *GoodputMeter) ServeOK(n int, t float64) {}

// Drop records a shed sample at virtual time t.
func (g *GoodputMeter) Drop(t float64) {}
