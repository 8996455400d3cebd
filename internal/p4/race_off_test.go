//go:build !race

package p4_test

const raceEnabled = false
