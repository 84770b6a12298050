package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// quantile returns the nearest-rank q-quantile of xs (0 for an empty
// sample). xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[min(max(i, 0), len(xs)-1)]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// chunkLen is how many consecutive latency samples one chunk holds.
const chunkLen = 32

// typical returns the median over consecutive chunks of chunkLen
// samples (in completion order) of the chunk's q-quantile: the
// percentile a caller sees in a typical stretch of the run, which a
// burst of interference from the shared host moves far less than it
// moves the percentile over the whole window. A last chunk shorter
// than half a chunk joins the one before it.
func typical(xs []float64, q float64) float64 {
	var qs []float64
	for lo := 0; lo < len(xs); {
		hi := lo + chunkLen
		if len(xs)-hi < chunkLen/2 {
			hi = len(xs)
		}
		qs = append(qs, quantile(append([]float64(nil), xs[lo:hi]...), q))
		lo = hi
	}
	return median(qs)
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio is a/b, 0 when b is 0: a layer the workload bypasses has no
// denominator and reads 0, not NaN (which JSON cannot carry).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// quartiles returns the first quartile, median and third quartile the
// way Python's statistics.quantiles(xs, n=4) does (exclusive method),
// so -compare's spread is the number the driver computes. It needs two
// values; one value is its own quartiles.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	if ld == 0 {
		return 0, 0, 0
	}
	if ld == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := min(max(i*(ld+1)/4, 1), ld-1)
		delta := float64(i*(ld+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// cpuSeconds is the process's user + system CPU time so far, from
// CLOCK_PROCESS_CPUTIME_ID: the scheduler's own nanosecond account.
// getrusage is sampled at the timer tick on this kernel, and the
// open-loop generators wake on timers, so its reading depends on how a
// run's schedule happens to line up with the tick.
func cpuSeconds() float64 {
	const clockProcessCPUTimeID = 2
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return float64(ts.Sec) + float64(ts.Nsec)/1e9
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// procSnap is the process-wide state read at a window boundary.
type procSnap struct {
	at  time.Time
	cpu float64
	mem runtime.MemStats
}

func takeProcSnap() procSnap {
	s := procSnap{at: time.Now(), cpu: cpuSeconds()}
	runtime.ReadMemStats(&s.mem)
	return s
}

// runtimeMetrics fills the runtime.* block from the MemStats deltas
// over a window that answered rows rows, and the host speed it saw.
func runtimeMetrics(m map[string]float64, a, b procSnap, rows, hostSpeed float64) {
	m["runtime.allocs_per_row"] = ratio(float64(b.mem.Mallocs-a.mem.Mallocs), rows)
	m["runtime.alloc_kb_per_row"] = ratio(float64(b.mem.TotalAlloc-a.mem.TotalAlloc)/1024, rows)
	m["runtime.gc_cycles"] = float64(b.mem.NumGC - a.mem.NumGC)
	m["runtime.gc_pause_ms"] = float64(b.mem.PauseTotalNs-a.mem.PauseTotalNs) / 1e6
	m["runtime.host_speed"] = hostSpeed
}

// allocDelta runs fn and returns the heap objects and bytes it
// allocated. Only meaningful while nothing else runs in the process.
func allocDelta(fn func()) (mallocs, bytes float64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs - a.Mallocs), float64(b.TotalAlloc - a.TotalAlloc)
}

// timeReps times fn repeatedly — after one untimed call, at least
// minReps times and until budget has elapsed — and returns the median
// duration in seconds.
func timeReps(budget time.Duration, minReps int, fn func()) float64 {
	fn()
	var durs []float64
	for start := time.Now(); len(durs) < minReps || time.Since(start) < budget; {
		t0 := time.Now()
		fn()
		durs = append(durs, time.Since(t0).Seconds())
	}
	return median(durs)
}

// medianSetup runs a workload's set-up reps times (once in the smoke)
// and returns the median of process start (first time) or call (later
// times) → ready, in seconds at the reference host speed (see
// hostProbe): clockS of a set-up was set by a clock, the rest is
// CPU-bound — model initialisation, checkpoint encode and decode, the
// cost probe's passes. setup tears down all but its last build before
// returning; the discarded build's memory is then handed back to the
// OS, so that repeated set-ups do not stack up in the resident-set
// high-water mark the way a single set-up never would.
func medianSetup(p params, log io.Writer, reps int, setup func(i int, last bool) (ready time.Time, clockS float64, err error)) (float64, error) {
	if p.smoke {
		reps = 1
	}
	var timed, secs []float64
	for i := 0; i < reps; i++ {
		start := time.Now()
		if i == 0 && !p.smoke {
			start = processStart
		}
		ready, clockS, err := setup(i, i == reps-1)
		if err != nil {
			return 0, fmt.Errorf("set-up: %w", err)
		}
		timed = append(timed, ready.Sub(start).Seconds())
		secs = append(secs, atRefSpeed(timed[i], clockS, p.probe.speed(start.UnixNano(), ready.UnixNano())))
		if i < reps-1 {
			debug.FreeOSMemory()
		}
	}
	fmt.Fprintf(log, "setup %s: %v s as timed, %v s at the reference host speed\n", p.workload, timed, secs)
	return median(secs), nil
}

// endToEnd renders a window as the end-to-end metric set.
func (w window) endToEnd(setupS, peakRSSMB float64) map[string]float64 {
	return map[string]float64{
		"setup_s": setupS, "rows_per_s": w.rowsPerS, "p50_ms": w.p50, "p90_ms": w.p90,
		"cpu_ms_per_row": w.cpuMsPerRow, "peak_rss_mb": peakRSSMB,
	}
}

// logAsTimed prints the host speed the window saw and what it read
// before it was brought to the reference speed.
func (w window) logAsTimed(log io.Writer) {
	fmt.Fprintf(log, "host_speed %.4f (1 = the reference host on a quiet minute); as timed: %.6g rows/s, p50 %.6g ms, p90 %.6g ms\n",
		w.hostSpeed, w.rawRowsPerS, w.rawP50, w.rawP90)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
