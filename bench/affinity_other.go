//go:build !linux

package main

// Processor affinity is only set on Linux; elsewhere rounds run wherever
// the operating system puts them.
type cpuMask struct{}

func (m *cpuMask) cpus() []int        { return nil }
func only(int) *cpuMask               { return nil }
func setAffinity(int, *cpuMask) error { return nil }
func allowedCPUs() *cpuMask           { return nil }
func setProcessAffinity(*cpuMask)     {}
