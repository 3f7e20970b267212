package sched

import "cohort/internal/shmring"

// SetCreateRegion replaces the region maker a same-host connection is
// offered from, and returns the undo.
func SetCreateRegion(f func(words int) (*shmring.Region, error)) (undo func()) {
	old := createRegion
	createRegion = f
	return func() { createRegion = old }
}
