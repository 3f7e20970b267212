package client

import "cohort/internal/shmring"

// SetAttachRegion replaces how an offered region is mapped, and returns the
// undo.
func SetAttachRegion(f func(name string, words int) (*shmring.Region, error)) (undo func()) {
	old := attachRegion
	attachRegion = f
	return func() { attachRegion = old }
}

// Attached reports whether the session's connection moves its words
// through shared-memory rings.
func Attached(c *Conn) bool { return c.wc.Attached() }

// DropIdle closes the connections kept for addr, so the next Connect dials.
func DropIdle(addr string) {
	for c := idle.Pop(addr); c != nil; c = idle.Pop(addr) {
		c.Close()
	}
}
