//go:build linux

package core

import "syscall"

// gettid returns the calling OS thread's id.
func gettid() (int, bool) { return syscall.Gettid(), true }
