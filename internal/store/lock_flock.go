//go:build darwin || dragonfly || freebsd || linux || netbsd || openbsd

package store

import (
	"os"
	"syscall"
)

// tryLock takes an exclusive flock on f without blocking. The lock
// belongs to the open file description, so two handles in one process
// exclude each other as two processes do.
func tryLock(f *os.File) bool {
	return syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB) == nil
}

// unlock releases f's flock.
func unlock(f *os.File) {
	syscall.Flock(int(f.Fd()), syscall.LOCK_UN)
}
