package main

import (
	"runtime"
	"sort"
	"syscall"
	"time"
	"unsafe"
)

// The machines this benchmark runs on are shared virtual machines whose
// speed drifts by 10 to 30% over minutes, all workloads together, so times
// as measured did not repeat from one set of runs to the next. Every run
// therefore also times a fixed reference kernel, from its first set-up to
// the end of its timed phase, and scales its end-to-end times to the speed
// at which the kernel takes refKernelUS. bench/README.md ("Host speed") has
// the measurements behind this.
//
// The kernel is timed on the thread CPU clock, so it measures how fast a
// core runs while the kernel holds it, not how long it waited for one: the
// workload keeps both cores busy, and a change that made it busier would
// otherwise read as a slower host.

// refKernelUS is the reference speed: a round figure for the kernel's
// median CPU time over 160 runs on the machine the bounds were measured on
// (2 vCPUs of an Intel Xeon at 2.0 GHz, Linux, go1.24), so that there a
// scaled time reads close to the measured one.
const refKernelUS = 300

// refExponent is how much faster than the kernel the workloads slow down
// as the host does: over those 160 runs, the slope of a workload's log time
// against the kernel's log time was 1.2 to 2.3, with a median of 1.5.
const refExponent = 1.5

// speedPeriod is how often the probe times the kernel. One kernel takes
// about 0.3 ms, so the probe holds a core for about 0.3% of the time.
const speedPeriod = 100 * time.Millisecond

// speedProbe times the reference kernel every speedPeriod on a goroutine
// locked to its own thread, until finish.
type speedProbe struct {
	stop, done chan struct{}
	us         []float64 // kernel CPU times; written by the probe until done closes
}

func startSpeedProbe() *speedProbe {
	p := &speedProbe{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(p.done)
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		k := newRefKernel()
		tick := time.NewTicker(speedPeriod)
		defer tick.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-tick.C:
			}
			start := threadCPU()
			k.run()
			p.us = append(p.us, us(threadCPU()-start))
		}
	}()
	return p
}

// finish stops the probe and returns the kernel's median CPU time in µs,
// or refKernelUS if the probe never ran.
func (p *speedProbe) finish() float64 {
	close(p.stop)
	<-p.done
	if len(p.us) == 0 {
		return refKernelUS
	}
	return median(p.us)
}

// threadCPU reads the calling thread's CPU clock (Linux
// CLOCK_THREAD_CPUTIME_ID); getrusage(RUSAGE_THREAD) counts in scheduler
// ticks, too coarse for a sub-millisecond kernel.
func threadCPU() time.Duration {
	const clockThreadCPUTime = 3
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// refKernel is fixed, allocation-free work in the mix a Go program does:
// generating and hashing 64 KiB and sorting 2048 integers.
type refKernel struct {
	buf  []uint32
	keys []int
	sink uint32
}

func newRefKernel() *refKernel {
	return &refKernel{buf: make([]uint32, 16<<10), keys: make([]int, 2048)}
}

func (k *refKernel) run() {
	x := uint32(2463534242)
	for i := range k.buf {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		k.buf[i] = x
	}
	h := uint32(2166136261)
	for r := 0; r < 4; r++ {
		for i := 0; i < len(k.buf); i += 1 + int(h&7) {
			h = (h ^ k.buf[i]) * 16777619
		}
	}
	for i := range k.keys {
		k.keys[i] = int(k.buf[i*7%len(k.buf)])
	}
	sort.Ints(k.keys)
	k.sink += h + uint32(k.keys[len(k.keys)/2])
}
