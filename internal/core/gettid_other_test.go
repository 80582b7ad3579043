//go:build !linux

package core

// gettid has no thread id to return: gettid(2) is Linux's.
func gettid() (int, bool) { return 0, false }
