package main

import (
	"fmt"
	"math"
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// The host is a few vCPUs of a shared machine, and its speed drifts: on the
// reference box (2-vCPU Xeon VM) the same scale-10k run has taken anywhere
// from 150 to 460 ms, holding each speed for minutes, with little steal
// time. So the timed end-to-end numbers are stated at a fixed host speed. A
// run samples the host with the reference before each set-up and each
// operation (serve-mixed: before each segment of its closed loop), and
// scales its measured times by refUnitMs over the median sample. A pass is a
// small event simulation of the benchmark's own (a binary heap of timed
// events, each touching neighbouring state in a table that fits in L2), so
// that it slows down with the host as the repository's simulations do but
// does not change when their code does. A sample runs one pass pinned to
// each processor in turn and takes the harmonic mean of their times, which
// is what a pool spread over the processors would see: the host sometimes
// runs one vCPU well and the other one hardly at all.

// refUnitMs defines the stated speed: times are given for a host on which
// a reference sample takes this long.
const refUnitMs = 20

const (
	refEvents  = 100_000 // events per pass
	refSlots   = 1 << 15 // state table entries: 256 KiB
	refPending = 1 << 13 // events in flight
)

// refEvent is one pending event of the reference simulation.
type refEvent struct {
	t  float64
	at uint32
}

// reference is the reference simulation and the run's samples of it. Its
// buffers are allocated once, so that a pass allocates nothing.
type reference struct {
	state []float64
	heap  []refEvent
	sum   float64   // checksum every pass must repeat
	all   cpuSet    // the process's processors
	cpus  []int     // the processors a sample visits, GOMAXPROCS of them
	ms    []float64 // each sample: harmonic mean of its passes' durations
}

// newReference allocates the reference and runs it once unsampled, so that
// the first sample does not pay for page faults.
func newReference() (*reference, error) {
	ref := &reference{state: make([]float64, refSlots), heap: make([]refEvent, 0, refPending+1)}
	if err := schedAffinity(syscall.SYS_SCHED_GETAFFINITY, &ref.all); err != nil {
		return nil, fmt.Errorf("reading the processor set: %w", err)
	}
	for cpu := 0; cpu < len(ref.all)*64 && len(ref.cpus) < runtime.GOMAXPROCS(0); cpu++ {
		if ref.all[cpu/64]&(1<<(cpu%64)) != 0 {
			ref.cpus = append(ref.cpus, cpu)
		}
	}
	ref.sum = ref.pass()
	return ref, nil
}

// sample runs one pass on each processor and records the harmonic mean of
// their durations. A pass whose checksum differs from the first one's is
// an error.
func (ref *reference) sample() (err error) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	defer func() {
		if e := schedAffinity(syscall.SYS_SCHED_SETAFFINITY, &ref.all); e != nil && err == nil {
			err = fmt.Errorf("restoring the processor set: %w", e)
		}
	}()
	inv := 0.0
	for _, cpu := range ref.cpus {
		var one cpuSet
		one[cpu/64] = 1 << (cpu % 64)
		if err := schedAffinity(syscall.SYS_SCHED_SETAFFINITY, &one); err != nil {
			return fmt.Errorf("pinning to processor %d: %w", cpu, err)
		}
		t0 := time.Now()
		sum := ref.pass()
		inv += 1e6 / float64(time.Since(t0))
		if sum != ref.sum {
			return fmt.Errorf("reference pass checksum %v, want %v", sum, ref.sum)
		}
	}
	ref.ms = append(ref.ms, float64(len(ref.cpus))/inv)
	return nil
}

// cpuSet is a Linux processor affinity mask.
type cpuSet [16]uint64

// schedAffinity reads (SYS_SCHED_GETAFFINITY) or sets
// (SYS_SCHED_SETAFFINITY) the calling thread's processors.
func schedAffinity(trap uintptr, set *cpuSet) error {
	_, _, e := syscall.RawSyscall(trap, 0, unsafe.Sizeof(*set), uintptr(unsafe.Pointer(set)))
	if e != 0 {
		return e
	}
	return nil
}

// scale converts the run's measured times to the stated host speed.
func (ref *reference) scale() float64 { return refUnitMs / median(ref.ms) }

// pass runs a fixed event sequence and returns a checksum of it.
func (ref *reference) pass() float64 {
	clear(ref.state)
	x := uint64(0x9e3779b97f4a7c15)
	rnd := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	ref.heap = ref.heap[:0]
	for i := 0; i < refPending; i++ {
		ref.push(refEvent{float64(rnd()%1000) / 10, uint32(rnd() % refSlots)})
	}
	sum := 0.0
	for k := 0; k < refEvents; k++ {
		e := ref.pop()
		for j := uint64(0); j < 4; j++ {
			n := (uint64(e.at)*2654435761 + j*40503 + rnd()%64) % refSlots
			ref.state[n] = 0.5*ref.state[n] + math.Sqrt(e.t+float64(j))
			sum += ref.state[n]
		}
		ref.push(refEvent{e.t + float64(rnd()%100)/10, uint32(rnd() % refSlots)})
	}
	return sum
}

func (ref *reference) push(e refEvent) {
	h := append(ref.heap, e)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h[p].t <= h[i].t {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	ref.heap = h
}

func (ref *reference) pop() refEvent {
	h := ref.heap
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	for i := 0; ; {
		m := 2*i + 1
		if m >= len(h) {
			break
		}
		if r := m + 1; r < len(h) && h[r].t < h[m].t {
			m = r
		}
		if h[i].t <= h[m].t {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	ref.heap = h
	return top
}
