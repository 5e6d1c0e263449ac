//go:build !linux

package main

// fsName is only resolved on Linux.
func fsName(string) string { return "unknown" }
