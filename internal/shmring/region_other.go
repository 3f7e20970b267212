//go:build !linux

package shmring

import "errors"

// Supported reports whether this platform maps regions.
const Supported = false

var errUnsupported = errors.New("shmring: no shared-memory regions on this platform")

// Create fails: sessions on this platform move their words in Data frames.
func Create(words int) (*Region, error) { return nil, errUnsupported }

// Attach fails, as Create does.
func Attach(name string, words int) (*Region, error) { return nil, errUnsupported }

// Unlink does nothing: no region has a file here.
func (r *Region) Unlink() {}

func unmap(mem []byte) {}
