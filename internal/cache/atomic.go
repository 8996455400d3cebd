package cache

import (
	"os"
	"path/filepath"
)

// WriteAtomic writes data to path crash-atomically: a uniquely named temp
// file in path's directory is written, fsynced and closed, publish moves
// it to path, and the directory is fsynced so the publish itself is
// durable. A kill -9 at any point leaves either the old state or the
// complete new file, never a torn one, and the unique temp name makes
// concurrent writers safe. publish is os.Rename to replace path, or
// os.Link to create it only if absent; its error is returned as is, so
// a lost link race still matches os.ErrExist. The temp file is removed
// on every path.
func WriteAtomic(path string, data []byte, publish func(oldpath, newpath string) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op once renamed; drops the extra name once linked
	_, err = tmp.Write(data)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if err := publish(tmp.Name(), path); err != nil {
		return err
	}
	// Best effort: some filesystems reject a directory fsync.
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
	return nil
}
