package main

import (
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The reference host is a few cores of a shared machine, and how fast
// those cores run identical code moves by tens of percent — for a few
// hundred milliseconds at a time, and for minutes at a time (a fixed
// arithmetic loop was measured taking 1.25 ms of CPU on a quiet minute
// and 2.2 ms on a bad one, and every workload slowed with it). No window
// that fits the driver's time cap averages that out, so the benchmark
// measures it instead: hostProbe times a fixed, bench-owned kernel every
// probePeriod for the whole run, and every CPU-bound duration is
// reported at the reference speed — multiplied by the host speed
// (refKernelNs ÷ the kernel's cost) read while it ran.
//
// The kernel is L1-resident arithmetic and is costed in CPU time of its
// own locked OS thread, so neither the program's memory traffic nor its
// threads competing for the cores move the reading: it tracks the host,
// not the program. It takes about 3 % of one core.

// refKernelNs is the kernel's CPU cost on a quiet reference host, so
// that host speed reads 1 there and the normalised metrics keep their
// units.
const refKernelNs = 1250e3

// probePeriod is the time between two readings; probePad widens the
// interval a speed is read over on both sides, so that even a
// millisecond-long operation is normalised by a handful of readings.
const (
	probePeriod = 50 * time.Millisecond
	probePad    = 125 * time.Millisecond
)

// threadCPUNs is the calling OS thread's CPU time so far.
func threadCPUNs() int64 {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return ts.Sec*1e9 + ts.Nsec
}

// refKernel is the fixed work one reading costs: 400 passes of four
// independent multiply-add chains over 32 KB.
func refKernel(a []float32) float32 {
	var sink float32
	for r := 0; r < 400; r++ {
		var s0, s1, s2, s3 float32
		for i := 0; i+3 < len(a); i += 4 {
			s0 += a[i] * 1.0001
			s1 += a[i+1] * 1.0001
			s2 += a[i+2] * 1.0001
			s3 += a[i+3] * 1.0001
		}
		sink += s0 + s1 + s2 + s3
	}
	return sink
}

// hostProbe is the run's record of host speed.
type hostProbe struct {
	stop, done chan struct{}
	mu         sync.Mutex
	at         []int64   // wall clock (UnixNano) of each reading
	costNs     []float64 // CPU time the kernel took
}

func startHostProbe() *hostProbe {
	h := &hostProbe{stop: make(chan struct{}), done: make(chan struct{}),
		at: make([]int64, 0, 4096), costNs: make([]float64, 0, 4096)}
	go func() {
		defer close(h.done)
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		a := make([]float32, 8<<10)
		for i := range a {
			a[i] = float32(i%7) * 0.25
		}
		var sink float32
		t := time.NewTicker(probePeriod)
		defer t.Stop()
		for {
			at := time.Now().UnixNano()
			c0 := threadCPUNs()
			sink += refKernel(a)
			cost := float64(threadCPUNs() - c0)
			h.mu.Lock()
			h.at, h.costNs = append(h.at, at), append(h.costNs, cost)
			h.mu.Unlock()
			select {
			case <-h.stop:
				runtime.KeepAlive(sink)
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// finish stops the probe and waits for its thread.
func (h *hostProbe) finish() {
	close(h.stop)
	<-h.done
}

// speed is the host speed over [fromNs, toNs] (UnixNano), widened by
// probePad on both sides: refKernelNs over the mean kernel cost read in
// it — the mean, because work in flight over the interval paid for
// every slow stretch in it. With no reading inside, the nearest one
// stands in; with none at all (a nil probe too) the speed is 1.
func (h *hostProbe) speed(fromNs, toNs int64) float64 {
	if h == nil {
		return 1
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.at) == 0 {
		return 1
	}
	lo := sort.Search(len(h.at), func(i int) bool { return h.at[i] >= fromNs-int64(probePad) })
	hi := sort.Search(len(h.at), func(i int) bool { return h.at[i] > toNs+int64(probePad) })
	if hi <= lo {
		lo = min(lo, len(h.at)-1)
		hi = lo + 1
	}
	return refKernelNs / (sum(h.costNs[lo:hi]) / float64(hi-lo))
}

// atRefSpeed brings a duration to the reference host speed: its first
// clock units were set by a timer and stay as timed, the rest was
// CPU-bound and scales with the host speed it ran at.
func atRefSpeed(dur, clock, speed float64) float64 {
	return min(dur, clock) + max(dur-clock, 0)*speed
}
