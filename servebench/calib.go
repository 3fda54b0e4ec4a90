package main

import (
	"math"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// Host speed. On a shared VM the host's load changes how much work a
// CPU-second does: a fixed loop ran 12% faster or slower from one second
// to the next on the 2-core reference VM, and its median moved 20% within
// half an hour. Every timed quantity is therefore reported at a reference
// host speed. Every calPeriod the timed phase lets the in-flight requests
// finish, holds the clients, and runs a burst: a fixed calibration kernel
// on every core, timed by each thread's own CPU clock. A span of the
// timed phase is scaled by the host speed around it, the mean of the
// bursts on either side over refSpeed, to the power hostExponent.
//
// The kernel is harness code over the standard library, so no change to
// the program under test can make it faster or slower. It allocates
// nothing, and no GC cycle runs during a burst, so the program's garbage
// cannot slow it; thread CPU time leaves out the time other threads of
// this process or of the machine hold the core.
const (
	calPeriod = 250 * time.Millisecond
	calUnits  = 4 // kernel units per thread per burst, ~1.4ms each on the reference VM

	// refSpeed is about the median kernel speed, in units per thread
	// CPU-second, on the reference VM.
	refSpeed = 700.0

	// hostExponent: the servers slow down more than the kernel when the
	// host is loaded. On the reference VM their throughput and CPU time
	// per request went as the kernel's speed to the power 1.2-1.45 from
	// one quarter-second to the next within a run, and 1.3-1.5 between
	// runs half an hour apart (with the stolen time below not yet taken
	// out). 1.25 is about the median slope within runs; exponents from 1
	// to 1.5 left about the same spread over runs.
	hostExponent = 1.25
)

// calInput is what the kernel sorts: 128 KiB of fixed random keys.
var calInput = func() []uint64 {
	r := rand.New(rand.NewSource(1))
	s := make([]uint64, 16384)
	for i := range s {
		s[i] = r.Uint64()
	}
	return s
}()

// calUnit is one kernel unit: sort a copy of calInput into buf. Of the
// kernels tried (sorting, map inserts, gathers over 4 and 64 MiB tables,
// SHA-256, a streaming copy, a loopback ping-pong), sorting tracked the
// servers' throughput from one quarter-second to the next most closely.
func calUnit(buf []uint64) {
	copy(buf, calInput)
	slices.Sort(buf)
}

// burst is one timed run of the kernel, in nanoseconds since the runner's
// base time, with the process CPU time on either side and the machine's
// CPU counters at its start.
type burst struct {
	start, end       int64
	cpuStart, cpuEnd time.Duration
	speed            float64 // units per thread CPU-second
	busy, stolen     int64   // /proc/stat ticks: busy (user, nice, system, irq, softirq) and steal
}

// hostClock runs the bursts of one timed phase.
type hostClock struct {
	now    func() int64
	bufs   [clients][]uint64 // one kernel buffer per thread
	bursts []burst
}

func newHostClock(now func() int64) *hostClock {
	h := &hostClock{now: now}
	for g := range h.bufs {
		h.bufs[g] = make([]uint64, len(calInput))
	}
	return h
}

// burst runs calUnits kernel units on each of clients threads at once and
// records their speed. The caller holds the clients.
func (h *hostClock) burst() {
	// Setting the GC percent to -1 waits for a running mark phase to end;
	// the kernel allocates nothing, so no cycle starts until it is reset.
	gc := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(gc)
	b := burst{cpuStart: cpuTime(), start: h.now()}
	b.busy, b.stolen = machineTicks()
	var cpu [clients]time.Duration
	var wg sync.WaitGroup
	for g, buf := range h.bufs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			t0 := threadCPU()
			for i := 0; i < calUnits; i++ {
				calUnit(buf)
			}
			cpu[g] = threadCPU() - t0
		}()
	}
	wg.Wait()
	b.end, b.cpuEnd = h.now(), cpuTime()
	var total time.Duration
	for _, d := range cpu {
		total += d
	}
	b.speed = refSpeed // no scaling where the thread clock cannot be read
	if total > 0 {
		b.speed = float64(calUnits*len(cpu)) / total.Seconds()
	}
	h.bursts = append(h.bursts, b)
}

// machineTicks reads the machine's busy and stolen CPU time, in ticks
// summed over its CPUs, from /proc/stat; zeros where it cannot.
func machineTicks() (busy, stolen int64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	var t [8]int64
	for i := range t {
		t[i], _ = strconv.ParseInt(f[i+1], 10, 64)
	}
	return t[0] + t[1] + t[2] + t[5] + t[6], t[7]
}

// stolenShare is the share of the CPU time the machine wanted between two
// bursts that the hypervisor gave to other machines.
func stolenShare(lo, hi burst) float64 {
	busy, stolen := hi.busy-lo.busy, hi.stolen-lo.stolen
	if stolen <= 0 || busy < 0 {
		return 0
	}
	return float64(stolen) / float64(busy+stolen)
}

// threadCPU is the calling thread's CPU time, to the nanosecond.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	const clockThreadCPUTime = 3 // CLOCK_THREAD_CPUTIME_ID
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// factor is the scale for a host speed.
func factor(speed float64) float64 { return math.Pow(speed/refSpeed, hostExponent) }

// around returns the bursts on either side of time t, the same burst
// twice before the first or after the last; ok is false without bursts.
func (h *hostClock) around(t int64) (lo, hi burst, ok bool) {
	b := h.bursts
	if len(b) == 0 {
		return burst{}, burst{}, false
	}
	i, _ := slices.BinarySearchFunc(b, t, func(x burst, t int64) int {
		if x.end <= t {
			return -1
		}
		return 1
	})
	// b[i-1] ended at or before t; b[i] ends after it.
	return b[max(i-1, 0)], b[min(i, len(b)-1)], true
}

// scale is the factor that takes a duration measured at time t to the
// reference speed, from the mean speed of the bursts on either side of t.
// 1 without bursts.
func (h *hostClock) scale(t int64) float64 {
	lo, hi, ok := h.around(t)
	if !ok {
		return 1
	}
	return factor((lo.speed + hi.speed) / 2)
}

// stolen is the share of CPU time stolen between the bursts around t.
func (h *hostClock) stolen(t int64) float64 {
	lo, hi, _ := h.around(t)
	return stolenShare(lo, hi)
}

// scaled sums, at the reference speed, the wall and process CPU time of
// the timed phase between first and last, leaving out the bursts. Wall
// time also leaves out the share the hypervisor stole: on the reference
// VM that share reached 50% for minutes at a time, and it stretches the
// wall clock without slowing the CPU-seconds the bursts time.
func (h *hostClock) scaled(first, last int64) (wall, cpu float64) {
	for i := 0; i+1 < len(h.bursts); i++ {
		lo, hi := h.bursts[i], h.bursts[i+1]
		f := factor((lo.speed + hi.speed) / 2)
		if d := min(hi.start, last) - max(lo.end, first); d > 0 {
			wall += float64(d) * f * (1 - stolenShare(lo, hi))
		}
		cpu += float64(hi.cpuStart-lo.cpuEnd) * f
	}
	return wall, cpu
}
