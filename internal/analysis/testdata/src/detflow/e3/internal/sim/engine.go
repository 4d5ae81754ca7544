// Package sim is a fixture stand-in for the real engine: just enough
// surface for detflow's sink table (Engine.At / Engine.After /
// Timer.Reset) to match.
package sim

// Engine mirrors the real engine's scheduling surface.
type Engine struct {
	now float64
}

// Now returns virtual time — the sanctioned clock.
func (e *Engine) Now() float64 { return e.now }

// At schedules f at absolute virtual time t.
func (e *Engine) At(t float64, f func()) {
	_ = t
	_ = f
}

// After schedules f after virtual delay d.
func (e *Engine) After(d float64, f func()) {
	_ = d
	_ = f
}

// Timer mirrors the real engine's reusable schedule.
type Timer struct {
	at float64
}

// Reset schedules the timer at absolute virtual time at.
func (t *Timer) Reset(at float64) {
	t.at = at
}
