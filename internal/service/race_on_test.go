//go:build race

package service

// raceEnabled reports a -race build, whose runtime allocates on its own
// account and schedules slowly: allocation ceilings and sub-10ms latency
// bounds do not apply to it.
const raceEnabled = true
