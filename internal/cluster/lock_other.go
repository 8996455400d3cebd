//go:build !unix

package cluster

import "os"

// LockFile is a no-op off unix, where replicas writing one file in the
// group directory are not serialised.
func LockFile(*os.File) error { return nil }
