package main

import (
	"os"
	"strconv"
	"syscall"
	"unsafe"
)

// cpuMask is a sched_setaffinity mask of up to 1024 processors.
type cpuMask [16]uint64

func (m *cpuMask) cpus() []int {
	var out []int
	for i := 0; i < len(m)*64; i++ {
		if m[i/64]&(1<<(i%64)) != 0 {
			out = append(out, i)
		}
	}
	return out
}

func only(cpu int) *cpuMask {
	var m cpuMask
	m[cpu/64] = 1 << (cpu % 64)
	return &m
}

// setAffinity confines thread tid (0: the calling thread) to the mask.
func setAffinity(tid int, m *cpuMask) error {
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(*m), uintptr(unsafe.Pointer(m)))
	if errno != 0 {
		return errno
	}
	return nil
}

// allowedCPUs is the calling thread's affinity mask; nil when it cannot
// be read.
func allowedCPUs() *cpuMask {
	var m cpuMask
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
	if errno != 0 {
		return nil
	}
	return &m
}

// setProcessAffinity confines every thread of this process to the mask.
// Threads the runtime starts later inherit the mask of the thread that
// starts them, so two passes leave no straggler that matters; a thread
// that has exited meanwhile is skipped.
func setProcessAffinity(m *cpuMask) {
	for pass := 0; pass < 2; pass++ {
		entries, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return
		}
		for _, e := range entries {
			if tid, err := strconv.Atoi(e.Name()); err == nil {
				_ = setAffinity(tid, m) // ESRCH: the thread has exited
			}
		}
	}
}
