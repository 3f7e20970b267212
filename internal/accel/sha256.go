// Package accel provides the accelerators integrated into the Cohort SoC
// (paper §5.2): from-scratch, bit-exact SHA-256 and AES-128 kernels (verified
// against the standard library in tests), an H.264-style intra encoder with
// CAVLC-flavoured entropy coding, and a radix-2 FFT/STFT — plus the timed,
// latency-insensitive device wrappers that the Cohort engine and the MAPLE
// baseline host.
package accel

import (
	"encoding/binary"
	"math/bits"
)

// SHA256Size is the digest size in bytes.
const SHA256Size = 32

// SHA256BlockSize is the compression-function block size in bytes (512 bits).
const SHA256BlockSize = 64

var sha256K = [64]uint32{
	0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
	0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
	0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
	0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
	0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
	0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
	0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
	0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
}

// sha256InitState is the FIPS 180-4 initial hash value.
var sha256InitState = [8]uint32{
	0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
	0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
}

// sha256Schedule expands one 64-byte block into the 64 message-schedule words
// with the round constants already added: kw[i] = K[i] + W[i], which is all a
// round ever reads of either.
func sha256Schedule(kw *[64]uint32, block *[SHA256BlockSize]byte) {
	var w [64]uint32
	for i := 0; i < 16; i++ {
		w[i] = binary.BigEndian.Uint32(block[4*i:])
		kw[i] = w[i] + sha256K[i]
	}
	for i := 16; i < 64; i++ {
		v15, v2 := w[i-15], w[i-2]
		s0 := bits.RotateLeft32(v15, -7) ^ bits.RotateLeft32(v15, -18) ^ v15>>3
		s1 := bits.RotateLeft32(v2, -17) ^ bits.RotateLeft32(v2, -19) ^ v2>>10
		w[i] = w[i-16] + s0 + w[i-7] + s1
		kw[i] = w[i] + sha256K[i]
	}
}

// sha256Rounds runs the 64 compression rounds over a scheduled block and
// folds the result into state.
func sha256Rounds(state *[8]uint32, kw *[64]uint32) {
	a, b, c, d, e, f, g, h := state[0], state[1], state[2], state[3], state[4], state[5], state[6], state[7]
	for _, k := range kw {
		s1 := bits.RotateLeft32(e, -6) ^ bits.RotateLeft32(e, -11) ^ bits.RotateLeft32(e, -25)
		t1 := h + s1 + (g ^ (e & (f ^ g))) + k // ch(e,f,g)
		s0 := bits.RotateLeft32(a, -2) ^ bits.RotateLeft32(a, -13) ^ bits.RotateLeft32(a, -22)
		t2 := s0 + ((a & b) | (c & (a | b))) // maj(a,b,c)
		h, g, f, e, d, c, b, a = g, f, e, d+t1, c, b, a, t1+t2
	}
	state[0] += a
	state[1] += b
	state[2] += c
	state[3] += d
	state[4] += e
	state[5] += f
	state[6] += g
	state[7] += h
}

// sha256Compress applies the SHA-256 compression function to one 64-byte
// block, updating state in place.
func sha256Compress(state *[8]uint32, block []byte) {
	var kw [64]uint32
	sha256Schedule(&kw, (*[SHA256BlockSize]byte)(block))
	sha256Rounds(state, &kw)
}

// sha256Pad64 is the scheduled padding block of every 64-byte message: 0x80,
// zeros, and the bit length 512. It is a constant, so its schedule is
// computed once and SHA256Sum64's second compression is rounds only.
var sha256Pad64 = func() (kw [64]uint32) {
	var pad [SHA256BlockSize]byte
	pad[0] = 0x80
	binary.BigEndian.PutUint64(pad[SHA256BlockSize-8:], 8*SHA256BlockSize)
	sha256Schedule(&kw, &pad)
	return kw
}()

// SHA256Sum64 is the single-block path of the streaming accelerator: the
// digest of exactly one 64-byte message, with no hasher object, no buffering
// and no allocation.
func SHA256Sum64(block *[SHA256BlockSize]byte) [SHA256Size]byte {
	state := sha256InitState
	var kw [64]uint32
	sha256Schedule(&kw, block)
	sha256Rounds(&state, &kw)
	sha256Rounds(&state, &sha256Pad64)
	return sha256Digest(&state)
}

// sha256Digest serializes a final hash state big-endian.
func sha256Digest(state *[8]uint32) (out [SHA256Size]byte) {
	for i, v := range state {
		binary.BigEndian.PutUint32(out[4*i:], v)
	}
	return out
}

// SHA256 is an incremental SHA-256 hasher.
type SHA256 struct {
	state [8]uint32
	buf   [SHA256BlockSize]byte
	nbuf  int
	total uint64
}

// NewSHA256 returns a fresh hasher.
func NewSHA256() *SHA256 {
	d := &SHA256{}
	d.Reset()
	return d
}

// Reset returns the hasher to its initial state.
func (d *SHA256) Reset() {
	d.state = sha256InitState
	d.nbuf = 0
	d.total = 0
}

// Write absorbs p. It never fails.
func (d *SHA256) Write(p []byte) (int, error) {
	n := len(p)
	d.total += uint64(n)
	if d.nbuf > 0 {
		c := copy(d.buf[d.nbuf:], p)
		d.nbuf += c
		p = p[c:]
		if d.nbuf == SHA256BlockSize {
			sha256Compress(&d.state, d.buf[:])
			d.nbuf = 0
		}
		if len(p) == 0 {
			return n, nil
		}
	}
	for len(p) >= SHA256BlockSize {
		sha256Compress(&d.state, p[:SHA256BlockSize])
		p = p[SHA256BlockSize:]
	}
	d.nbuf = copy(d.buf[:], p)
	return n, nil
}

// Sum returns the digest of everything written so far without disturbing the
// hasher state.
func (d *SHA256) Sum() [SHA256Size]byte {
	c := *d // pad a copy
	var pad [SHA256BlockSize + 8]byte
	pad[0] = 0x80
	padLen := SHA256BlockSize - (int(c.total+9) % SHA256BlockSize)
	if padLen == SHA256BlockSize {
		padLen = 0
	}
	msgLen := c.total * 8
	binary.BigEndian.PutUint64(pad[1+padLen:], msgLen)
	c.Write(pad[:1+padLen+8])
	return sha256Digest(&c.state)
}

// SHA256Sum computes the SHA-256 digest of data in one shot.
func SHA256Sum(data []byte) [SHA256Size]byte {
	d := NewSHA256()
	d.Write(data)
	return d.Sum()
}
