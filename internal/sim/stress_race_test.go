//go:build race

package sim

// heapStressPending is TestHeapStressTenMillionPending's queue depth under
// the race detector, whose shadow memory puts 10^7 events past the RAM and
// time of a small host; the full depth runs without -race.
const heapStressPending = 1 << 20
