//go:build race

package workloads

// raceEnabled reports a -race build, where single-goroutine generator
// sweeps run an order of magnitude slower and are cut to a sample.
const raceEnabled = true
