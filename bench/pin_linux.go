package main

import (
	"fmt"
	"os"
	"strconv"
	"syscall"
	"unsafe"
)

type cpuSet [128]byte

// setAffinity restricts every thread of the process, and so every thread it
// will start, to the CPUs in set.
func setAffinity(set *cpuSet) error {
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return err
	}
	for _, t := range tasks {
		tid, err := strconv.Atoi(t.Name())
		if err != nil {
			continue
		}
		if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), uintptr(len(set)), uintptr(unsafe.Pointer(set))); errno != 0 && errno != syscall.ESRCH {
			return fmt.Errorf("sched_setaffinity(%d): %w", tid, errno)
		}
	}
	return nil
}

// pinToOneCPU pins the process to the highest-numbered CPU it may run on.
// A workload that runs at GOMAXPROCS 1 still has runtime and syscall
// threads; left free, they land on the other CPU and cost nothing on a quiet
// host but up to a third of the workload's speed when the host folds its
// CPUs onto one core (README, finding 1). Pinned, the process gets one CPU's
// worth either way. The highest CPU is the one least likely to serve
// interrupts.
func pinToOneCPU() error {
	var all cpuSet
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, uintptr(len(all)), uintptr(unsafe.Pointer(&all))); errno != 0 {
		return fmt.Errorf("sched_getaffinity: %w", errno)
	}
	last := -1
	for i, b := range all {
		for bit := 0; bit < 8; bit++ {
			if b&(1<<bit) != 0 {
				last = i*8 + bit
			}
		}
	}
	if last < 0 {
		return fmt.Errorf("sched_getaffinity: empty CPU set")
	}
	var one cpuSet
	one[last/8] = 1 << (last % 8)
	return setAffinity(&one)
}
