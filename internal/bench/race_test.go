//go:build race

package bench

// raceEnabled gates the allocation ceilings: the race runtime allocates on
// its own, so counts under -race do not match the ones pinned.
const raceEnabled = true
