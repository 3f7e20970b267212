package cohort

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"

	"cohort/internal/accel"
)

// WordsToBytes unpacks little-endian words (re-exported for applications
// marshalling data into queues).
func WordsToBytes(words []Word) []byte { return accel.WordsToBytes(words) }

// BytesToWords packs bytes (length a multiple of 8) into words.
func BytesToWords(b []byte) []Word { return accel.BytesToWords(b) }

// PadToWords zero-pads b up to a multiple of 8 bytes and packs it.
func PadToWords(b []byte) []Word {
	padded := make([]byte, (len(b)+7)/8*8)
	copy(padded, b)
	return accel.BytesToWords(padded)
}

// blockAccel adapts a block function to the Accelerator interface. Every
// built-in's process function writes its result into a buffer allocated once
// by the constructor and returns that buffer, so a warmed accelerator never
// allocates (see the result-lifetime contract on Accelerator.Process).
type blockAccel struct {
	name      string
	inWords   int
	outWords  int
	configure func(csr []byte) error
	process   func(in []Word) ([]Word, error)
}

func (a *blockAccel) Name() string  { return a.name }
func (a *blockAccel) InWords() int  { return a.inWords }
func (a *blockAccel) OutWords() int { return a.outWords }

func (a *blockAccel) Configure(csr []byte) error {
	if a.configure == nil {
		return nil
	}
	return a.configure(csr)
}

func (a *blockAccel) Process(in []Word) ([]Word, error) { return a.process(in) }

// NewSHA256 returns the SHA-256 accelerator: each 512-bit block (8 words) in
// produces its 256-bit digest (4 words) out, like the prototype's OpenCores
// core (§5.2).
func NewSHA256() Accelerator {
	var blk [sha256.BlockSize]byte
	out := make([]Word, 4)
	return &blockAccel{
		name:     "sha256",
		inWords:  8,
		outWords: 4,
		process: func(in []Word) ([]Word, error) {
			for i, w := range in[:8] {
				binary.LittleEndian.PutUint64(blk[8*i:], w)
			}
			sum := sha256.Sum256(blk[:])
			for i := range out {
				out[i] = binary.LittleEndian.Uint64(sum[8*i:])
			}
			return out, nil
		},
	}
}

// newAES128 builds either direction of the AES-128 ECB pair: 128-bit blocks
// in and out, keyed through the CSR struct (WithCSR(key)); the zero key
// applies until configured.
func newAES128(name string, crypt func(c *accel.AES, dst, src []byte)) Accelerator {
	cipher, _ := accel.NewAES(make([]byte, accel.AESKeySize))
	var blk [accel.AESBlockSize]byte
	out := make([]Word, 2)
	return &blockAccel{
		name:     name,
		inWords:  2,
		outWords: 2,
		configure: func(csr []byte) error {
			c, err := accel.NewAES(csr)
			if err != nil {
				return err
			}
			cipher = c
			return nil
		},
		process: func(in []Word) ([]Word, error) {
			binary.LittleEndian.PutUint64(blk[0:], in[0])
			binary.LittleEndian.PutUint64(blk[8:], in[1])
			crypt(cipher, blk[:], blk[:])
			out[0] = binary.LittleEndian.Uint64(blk[0:])
			out[1] = binary.LittleEndian.Uint64(blk[8:])
			return out, nil
		},
	}
}

// NewAES128 returns the AES-128 ECB encryptor.
func NewAES128() Accelerator { return newAES128("aes128", (*accel.AES).Encrypt) }

// NewAES128Decrypt returns the matching decryptor (not in the paper's
// prototype, but the natural second half of the pair).
func NewAES128Decrypt() Accelerator { return newAES128("aes128-dec", (*accel.AES).Decrypt) }

// NewNull returns the AXI-Stream FIFO "null" accelerator: a word-for-word
// pass-through (§4.3), handy for plumbing tests and as a chain spacer.
func NewNull() Accelerator {
	out := make([]Word, 1)
	return &blockAccel{
		name:     "axis-null",
		inWords:  1,
		outWords: 1,
		process: func(in []Word) ([]Word, error) {
			out[0] = in[0]
			return out, nil
		},
	}
}

// NewSTFT returns the short-time Fourier transform accelerator: `window`
// float64-bit samples in, `window` magnitude words out.
func NewSTFT(window int) (Accelerator, error) {
	if window <= 0 || window&(window-1) != 0 {
		return nil, fmt.Errorf("cohort: STFT window %d is not a power of two", window)
	}
	win := accel.HannWindow(window)
	frame := make([]complex128, window)
	out := make([]Word, window)
	return &blockAccel{
		name:     "stft",
		inWords:  window,
		outWords: window,
		process: func(in []Word) ([]Word, error) {
			for i, w := range in[:window] {
				frame[i] = complex(math.Float64frombits(w)*win[i], 0)
			}
			if err := accel.FFT(frame); err != nil {
				return nil, err
			}
			for i, c := range frame {
				out[i] = math.Float64bits(math.Hypot(real(c), imag(c)))
			}
			return out, nil
		},
	}, nil
}

// H264Config re-exports the encoder geometry (width/height multiples of 4,
// QP >= 1; QP 1 is lossless).
type H264Config = accel.H264Config

// NewH264 returns the H.264-style encoder as a frame-at-a-time accelerator:
// one frame in (packed pixels), a length-prefixed bitstream out. The
// OutWords count is fixed at 1 + ceil(maxStreamBytes/8); the first output
// word carries the true byte length. Configure (CSR: three LE uint32s —
// width, height, QP) resizes the geometry; it must match cfg's frame size.
func NewH264(cfg H264Config) (Accelerator, error) {
	enc, err := accel.NewH264Encoder(cfg)
	if err != nil {
		return nil, err
	}
	frameWords := (cfg.Width*cfg.Height + 7) / 8
	// Worst-case stream: header + ~3 bytes/pixel of Exp-Golomb coded
	// coefficients; generous bound keeps the block ratio fixed.
	maxStream := cfg.Width*cfg.Height*3 + 64
	outWords := 1 + (maxStream+7)/8
	frame := make([]byte, 8*frameWords)
	out := make([]Word, outWords)
	padded := make([]byte, 8*(outWords-1))
	return &blockAccel{
		name:     "h264",
		inWords:  frameWords,
		outWords: outWords,
		configure: func(csr []byte) error {
			if len(csr) < 12 {
				return fmt.Errorf("cohort: h264 CSR needs 12 bytes")
			}
			c := accel.H264Config{
				Width:  int(binary.LittleEndian.Uint32(csr[0:])),
				Height: int(binary.LittleEndian.Uint32(csr[4:])),
				QP:     int(binary.LittleEndian.Uint32(csr[8:])),
			}
			if c.Width != cfg.Width || c.Height != cfg.Height {
				return fmt.Errorf("cohort: h264 CSR geometry %dx%d differs from registered %dx%d",
					c.Width, c.Height, cfg.Width, cfg.Height)
			}
			e, err := accel.NewH264Encoder(c)
			if err != nil {
				return err
			}
			enc = e
			return nil
		},
		process: func(in []Word) ([]Word, error) {
			for i, w := range in[:frameWords] {
				binary.LittleEndian.PutUint64(frame[8*i:], w)
			}
			stream, err := enc.Encode([][]byte{frame[:cfg.Width*cfg.Height]})
			if err != nil {
				return nil, err
			}
			if len(stream) > maxStream {
				return nil, fmt.Errorf("cohort: h264 stream %d bytes exceeds bound %d", len(stream), maxStream)
			}
			out[0] = uint64(len(stream))
			clear(padded[copy(padded, stream):])
			for i := range out[1:] {
				out[1+i] = binary.LittleEndian.Uint64(padded[8*i:])
			}
			return out, nil
		},
	}, nil
}

// DecodeH264Output recovers the bitstream from an H264 accelerator's output
// block (length word + padded stream words).
func DecodeH264Output(block []Word) ([]byte, error) {
	if len(block) == 0 {
		return nil, fmt.Errorf("cohort: empty h264 output block")
	}
	n := block[0]
	raw := accel.WordsToBytes(block[1:])
	if n > uint64(len(raw)) {
		return nil, fmt.Errorf("cohort: h264 output claims %d bytes, block holds %d", n, len(raw))
	}
	return raw[:n], nil
}
