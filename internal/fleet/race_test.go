//go:build race

package fleet

// raceEnabled reports a -race build. Its instrumentation allocates where a
// normal build does not (slices.Grow's append of a made slice is not
// folded into one allocation), so allocation counts are checked only
// without it.
const raceEnabled = true
