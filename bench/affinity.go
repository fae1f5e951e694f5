package bench

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// cpuMask is a Linux CPU affinity mask, one bit per processor.
type cpuMask [16]uint64

func (m *cpuMask) count() int {
	n := 0
	for cpu := 0; cpu < len(m)*64; cpu++ {
		if m.has(cpu) {
			n++
		}
	}
	return n
}

func (m *cpuMask) has(cpu int) bool { return m[cpu/64]&(1<<(cpu%64)) != 0 }

// last returns a mask holding only the highest processor of m. Device
// interrupts land on the lowest one on this class of VM.
func (m *cpuMask) last() cpuMask {
	var one cpuMask
	for cpu := len(m)*64 - 1; cpu >= 0; cpu-- {
		if m.has(cpu) {
			one[cpu/64] = 1 << (cpu % 64)
			break
		}
	}
	return one
}

func getAffinity() (cpuMask, error) {
	var m cpuMask
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m))); errno != 0 {
		return m, fmt.Errorf("sched_getaffinity: %v", errno)
	}
	return m, nil
}

// allowed is the affinity mask this process was started with.
var allowed, allowedErr = getAffinity()

// Confine binds every thread of this process, and so every daemon it starts
// from now on, to one processor (the Go runtimes of both then run one
// goroutine at a time) or gives them back all the process was started with.
//
// Closed-loop workloads run confined. Client, daemon and the loopback path
// between them then share one core's caches, no thread waits for a parked
// vCPU to be given a core again, and the guest's scheduler has no placement
// to vary: block medians of throughput that spread 21-35 % over a quarter
// of an hour on two processors spread 10-17 % on one (README, "Why one
// processor"). The open loop's dispatcher never sleeps and needs a
// processor of its own.
func Confine(one bool) error {
	if allowedErr != nil {
		return allowedErr
	}
	mask, procs := allowed, allowed.count()
	if one {
		mask, procs = allowed.last(), 1
	}
	// A thread started while the others are being rebound inherits the mask
	// of the thread that started it, which may be the old one; the second
	// pass finds it.
	for pass := 0; pass < 2; pass++ {
		tasks, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return err
		}
		for _, t := range tasks {
			tid, err := strconv.Atoi(t.Name())
			if err != nil {
				continue
			}
			_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask)))
			if errno != 0 && errno != syscall.ESRCH { // ESRCH: the thread has exited since the listing
				return fmt.Errorf("sched_setaffinity(%d): %v", tid, errno)
			}
		}
	}
	runtime.GOMAXPROCS(procs)
	return nil
}
