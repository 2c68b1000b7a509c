package main

import (
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// clockProcessCPUTimeID is Linux's CLOCK_PROCESS_CPUTIME_ID.
const clockProcessCPUTimeID = 2

// cpuTime is the CPU time of the whole process so far, in nanoseconds:
// user plus system time of every thread, the Go runtime's included. A
// kernel with paravirtual steal-time accounting leaves out the time the
// hypervisor runs something else on the vCPU, which wall time counts.
func cpuTime() time.Duration {
	var ts syscall.Timespec
	_, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	if errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// stolenTime is the time the hypervisor has taken from all of the host's
// vCPUs since boot, from the steal column of /proc/stat (0 when
// unavailable). It is recorded next to the samples so that a run's wall
// time can be read against it.
func stolenTime() time.Duration {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks / 100 * float64(time.Second)) // USER_HZ is 100 on Linux
}

// refNominal is the reference batch's CPU time on a quiet host: on the
// 2-vCPU development VM (Intel Xeon, Go 1.24), the fastest times of the
// batch's three parts sum to about 64 ms. A normalised time is a CPU time
// multiplied by refNominal over the batch's CPU time around it, that is,
// what the work would have cost on that VM in a quiet moment.
const refNominal = 65 * time.Millisecond

// refInterval is how old the latest reference batch may be when a rep
// starts; an older one is measured again first.
const refInterval = 500 * time.Millisecond

// hostRef tracks how fast the host runs right now. On a shared host, other
// tenants' use of the core, its caches and the memory bus slows a
// simulation with a working set of tens of MiB by up to 2x for minutes at
// a time, and that slowdown is in its CPU time. The batch is fixed code
// that slows down with it: integer work, a dependent pointer chase over
// 4 MiB and random read-modify-writes over 32 MiB, the kinds of work a
// simulated request does. Of the mixes tried, this one tracked the
// simulator best: over 19 windows of 25 s spanning quiet and loaded
// phases, the per-window median of the co-run's CPU time over the batch's
// spread 6.3% (quartile distance over median), against 25.1% for the plain
// CPU time.
//
// A nil *hostRef normalises nothing: its batches read 0, and norm passes a
// time through unchanged.
type hostRef struct {
	chase []uint32 // chase[i] is the next index; one cycle through all
	table []uint64
	at    time.Time     // when the latest batch ran
	cpu   time.Duration // its CPU time
	runs  []float64     // every batch's CPU time, in s
}

func newHostRef() *hostRef {
	r := &hostRef{chase: make([]uint32, 1<<20), table: make([]uint64, 1<<22)}
	for i := range r.chase {
		// A full-period LCG modulo a power of two (Hull-Dobell: odd
		// increment, multiplier 1 mod 4) visits every index once per
		// cycle, in an order no prefetcher follows.
		r.chase[i] = uint32((uint64(i)*2654435761 + 12345) & uint64(len(r.chase)-1))
	}
	x := uint64(0x9e3779b97f4a7c15)
	for i := range r.table {
		x = xorshift(x)
		r.table[i] = x
	}
	return r
}

func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

// refSink keeps the batch's loops from being optimised away.
var refSink uint64

// batch runs the reference work once and returns its CPU time. The
// table's contents stay uniformly random, so every batch does the same
// work with the same branch behaviour.
func (r *hostRef) batch() time.Duration {
	c0 := cpuTime()
	x := uint64(0x2545f4914f6cdd1d)
	for i := 0; i < 5_000_000; i++ {
		x = xorshift(x)
	}
	j := uint32(0)
	for i := 0; i < 500_000; i++ {
		j = r.chase[j]
	}
	mask := uint64(len(r.table) - 1)
	var acc uint64
	for i := 0; i < 1_000_000; i++ {
		x = xorshift(x)
		k := x & mask
		switch v := r.table[k]; v & 3 {
		case 0:
			r.table[k] = v ^ x
		case 1:
			r.table[(k+1)&mask] ^= x
		default:
			acc += v
		}
	}
	refSink += x + acc + uint64(j)
	return cpuTime() - c0
}

// refresh measures the batch again when the latest one is older than
// refInterval, and returns the latest batch's CPU time.
func (r *hostRef) refresh() time.Duration {
	if r == nil {
		return 0
	}
	if r.cpu > 0 && time.Since(r.at) < refInterval {
		return r.cpu
	}
	return r.measure()
}

// measure runs the batch now and returns its CPU time.
func (r *hostRef) measure() time.Duration {
	r.cpu = r.batch()
	r.at = time.Now()
	r.runs = append(r.runs, r.cpu.Seconds())
	return r.cpu
}

// around returns the reference CPU time for work that began when the batch
// returned before did and has just ended: for work longer than
// refInterval, the mean of before and a batch measured now, since the host
// can change pace within seconds.
func (r *hostRef) around(before time.Duration) time.Duration {
	if r == nil {
		return 0
	}
	if time.Since(r.at) < refInterval {
		return before
	}
	return (before + r.measure()) / 2
}

// norm is d normalised to the quiet host, in s, given the reference
// batch's CPU time over the same stretch (0: d itself, in s).
func norm(d, ref time.Duration) float64 {
	if ref == 0 {
		return d.Seconds()
	}
	return d.Seconds() * refNominal.Seconds() / ref.Seconds()
}
