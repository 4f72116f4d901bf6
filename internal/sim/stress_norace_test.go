//go:build !race

package sim

// heapStressPending is TestHeapStressTenMillionPending's queue depth: the
// full 10^7 events a sharded scale-1m run reaches.
const heapStressPending = 10_000_000
