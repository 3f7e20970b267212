//go:build !race

package cluster_test

// raceEnabled gates allocation ceilings: the race runtime makes allocations
// of its own, and sync.Pool drops Puts at random under it.
const raceEnabled = false
