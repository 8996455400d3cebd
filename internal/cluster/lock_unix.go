//go:build unix

package cluster

import (
	"os"
	"syscall"
)

// LockFile blocks until it holds an exclusive flock on f, so replicas that
// write one file in the group directory take turns. Closing f releases it,
// and so does the death of the process.
func LockFile(f *os.File) error {
	return syscall.Flock(int(f.Fd()), syscall.LOCK_EX)
}
