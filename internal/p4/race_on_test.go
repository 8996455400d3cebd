//go:build race

package p4_test

// raceEnabled reports a -race build, whose runtime allocates on its own
// account: allocation ceilings do not apply to it.
const raceEnabled = true
