package accel

import "fmt"

// BitWriter assembles an MSB-first bitstream, as video codecs do.
type BitWriter struct {
	buf  []byte
	nbit uint // bits used in the final byte (0..7 means partial)
}

// WriteBit appends one bit.
func (w *BitWriter) WriteBit(b int) {
	if w.nbit == 0 {
		w.buf = append(w.buf, 0)
	}
	if b != 0 {
		w.buf[len(w.buf)-1] |= 0x80 >> w.nbit
	}
	w.nbit = (w.nbit + 1) % 8
}

// WriteBits appends the low n bits of v, MSB first (n <= 32).
func (w *BitWriter) WriteBits(v uint32, n uint) {
	for i := int(n) - 1; i >= 0; i-- {
		w.WriteBit(int(v >> uint(i) & 1))
	}
}

// WriteUE appends v as an Exp-Golomb code (ue(v) in H.264).
func (w *BitWriter) WriteUE(v uint32) {
	// codeNum+1 in binary, preceded by (bits-1) zeros.
	x := v + 1
	n := uint(0)
	for t := x; t > 1; t >>= 1 {
		n++
	}
	for i := uint(0); i < n; i++ {
		w.WriteBit(0)
	}
	w.WriteBits(x, n+1)
}

// WriteSE appends v as a signed Exp-Golomb code (se(v) in H.264).
func (w *BitWriter) WriteSE(v int32) {
	if v <= 0 {
		w.WriteUE(uint32(-2 * v))
	} else {
		w.WriteUE(uint32(2*v - 1))
	}
}

// Bytes returns the stream, zero-padded to a byte boundary.
func (w *BitWriter) Bytes() []byte { return w.buf }

// BitReader consumes an MSB-first bitstream.
type BitReader struct {
	buf []byte
	pos int // bit position
}

// NewBitReader reads from buf.
func NewBitReader(buf []byte) *BitReader { return &BitReader{buf: buf} }

// ReadBit returns the next bit.
func (r *BitReader) ReadBit() (int, error) {
	if r.pos >= 8*len(r.buf) {
		return 0, fmt.Errorf("accel: bitstream exhausted at bit %d", r.pos)
	}
	b := int(r.buf[r.pos/8]>>(7-uint(r.pos%8))) & 1
	r.pos++
	return b, nil
}

// ReadBits returns the next n bits MSB-first (n <= 32).
func (r *BitReader) ReadBits(n uint) (uint32, error) {
	var v uint32
	for i := uint(0); i < n; i++ {
		b, err := r.ReadBit()
		if err != nil {
			return 0, err
		}
		v = v<<1 | uint32(b)
	}
	return v, nil
}

// ReadUE decodes an unsigned Exp-Golomb code.
func (r *BitReader) ReadUE() (uint32, error) {
	n := uint(0)
	for {
		b, err := r.ReadBit()
		if err != nil {
			return 0, err
		}
		if b == 1 {
			break
		}
		n++
		if n > 32 {
			return 0, fmt.Errorf("accel: malformed Exp-Golomb code")
		}
	}
	rest, err := r.ReadBits(n)
	if err != nil {
		return 0, err
	}
	return 1<<n - 1 + rest, nil
}

// ReadSE decodes a signed Exp-Golomb code.
func (r *BitReader) ReadSE() (int32, error) {
	u, err := r.ReadUE()
	if err != nil {
		return 0, err
	}
	if u%2 == 0 {
		return -int32(u / 2), nil
	}
	return int32(u/2) + 1, nil
}
