//go:build !(darwin || dragonfly || freebsd || linux || netbsd || openbsd)

package store

import "os"

// tryLock always succeeds where flock is unavailable: there one
// directory must have one open handle at a time, since nothing stops a
// handle from compacting a segment another live handle appends to.
func tryLock(*os.File) bool { return true }

func unlock(*os.File) {}
