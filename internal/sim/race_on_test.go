//go:build race

package sim

// raceEnabled reports a -race build, whose runtime allocates on its own
// account: allocation ceilings do not apply to it.
const raceEnabled = true
