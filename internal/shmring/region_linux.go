//go:build linux

package shmring

import (
	"fmt"
	"math/rand/v2"
	"os"
	"strings"
	"sync/atomic"
	"syscall"
)

// Supported reports whether this platform maps regions.
const Supported = true

// dir is where regions live: a tmpfs every process of the host shares.
const dir = "/dev/shm/"

// namePrefix starts every region name, so an attaching client refuses any
// other file a shard might name.
const namePrefix = "cohort-"

var seq atomic.Uint64

// Create makes a region of two rings of words each: a new file under
// /dev/shm, opened O_EXCL|O_NOFOLLOW with mode 0600 so it is neither an
// existing file nor a symlink's target and only this user can map it, sized
// and mapped shared. The file stays linked until Unlink or Close, so the
// peer can open it by Name.
func Create(words int) (*Region, error) {
	if !validWords(words) {
		return nil, fmt.Errorf("shmring: %d words per ring, want a power of two in [%d, %d]", words, minWords, maxWords)
	}
	name := fmt.Sprintf("%s%d-%d-%08x", namePrefix, os.Getpid(), seq.Add(1), rand.Uint32())
	fd, err := syscall.Open(dir+name, syscall.O_RDWR|syscall.O_CREAT|syscall.O_EXCL|syscall.O_NOFOLLOW|syscall.O_CLOEXEC, 0o600)
	if err != nil {
		return nil, fmt.Errorf("shmring: create %s: %w", name, err)
	}
	defer syscall.Close(fd)
	mem, err := mapFD(fd, words, true)
	if err != nil {
		syscall.Unlink(dir + name)
		return nil, err
	}
	return &Region{mem: mem, words: words, name: name}, nil
}

// Attach maps the region a shard named, after checking what the name
// reaches: a plain file of this user's, readable by no one else, exactly
// the size two rings of words need. Anything else is an error and maps
// nothing.
func Attach(name string, words int) (*Region, error) {
	if !validWords(words) {
		return nil, fmt.Errorf("shmring: %d words per ring, want a power of two in [%d, %d]", words, minWords, maxWords)
	}
	if !validName(name) {
		return nil, fmt.Errorf("shmring: region name %q", name)
	}
	fd, err := syscall.Open(dir+name, syscall.O_RDWR|syscall.O_NOFOLLOW|syscall.O_CLOEXEC, 0)
	if err != nil {
		return nil, fmt.Errorf("shmring: open %s: %w", name, err)
	}
	defer syscall.Close(fd)
	var st syscall.Stat_t
	if err := syscall.Fstat(fd, &st); err != nil {
		return nil, fmt.Errorf("shmring: stat %s: %w", name, err)
	}
	switch {
	case st.Mode&syscall.S_IFMT != syscall.S_IFREG:
		return nil, fmt.Errorf("shmring: %s is not a plain file", name)
	case st.Uid != uint32(os.Getuid()) || st.Mode&0o077 != 0:
		return nil, fmt.Errorf("shmring: %s is not this user's alone", name)
	case st.Size != int64(regionBytes(words)):
		return nil, fmt.Errorf("shmring: %s is %d bytes, want %d", name, st.Size, regionBytes(words))
	}
	mem, err := mapFD(fd, words, false)
	if err != nil {
		return nil, err
	}
	return &Region{mem: mem, words: words}, nil
}

// validName accepts what Create names: the prefix, then digits, lower-case
// hex and dashes, short enough for any file system.
func validName(name string) bool {
	rest, ok := strings.CutPrefix(name, namePrefix)
	if !ok || rest == "" || len(name) > 64 {
		return false
	}
	for _, ch := range rest {
		if !(ch >= '0' && ch <= '9' || ch >= 'a' && ch <= 'f' || ch == '-') {
			return false
		}
	}
	return true
}

// mapFD sizes the file behind fd when size is set, and maps it shared. The
// size is allocated, not just set: a tmpfs that is full refuses here, and
// the session streams Data frames, instead of faulting a process that
// touches a page it cannot have.
func mapFD(fd, words int, size bool) ([]byte, error) {
	n := regionBytes(words)
	if size {
		if err := syscall.Fallocate(fd, 0, 0, int64(n)); err != nil {
			return nil, fmt.Errorf("shmring: allocate region: %w", err)
		}
	}
	mem, err := syscall.Mmap(fd, 0, n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
	if err != nil {
		return nil, fmt.Errorf("shmring: map region: %w", err)
	}
	return mem, nil
}

// Unlink removes the region's file, once both ends have it mapped; the
// mapping outlives the name. Idempotent.
func (r *Region) Unlink() {
	if r.name != "" {
		syscall.Unlink(dir + r.name) // a name already gone needs nothing more
		r.name = ""
	}
}

// unmap releases a mapping; Munmap fails only on a range that is not one,
// which Region never passes.
func unmap(mem []byte) { syscall.Munmap(mem) }
