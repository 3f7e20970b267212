package accel_test

import (
	"encoding/binary"
	"encoding/hex"
	"slices"
	"strings"
	"testing"

	"cohort"
	"cohort/internal/accel"
)

// TestSHA256KnownAnswers runs fixed 64-byte messages through every SHA-256
// wrapper: the native accelerator, the simulator's block device and the
// AXI-Stream device (as one 8-beat packet). The wrappers and the references
// the other tests compare against all hash with crypto/sha256, so only
// digests fixed outside Go catch a fault in the word<->byte packing: word i
// carries bytes 8i..8i+7 little-endian, in the message and in the digest.
// The digests are coreutils sha256sum's:
//
//	head -c 64 /dev/zero | sha256sum
//	printf '%s' 'ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/' | sha256sum
func TestSHA256KnownAnswers(t *testing.T) {
	for _, c := range []struct{ name, msg, digest string }{
		{"zeros", strings.Repeat("\x00", 64),
			"f5a5fd42d16a20302798ef6ed309979b43003d2320d9f0e8ea9831a92759fb4b"},
		{"base64-alphabet", "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/",
			"7543b37fa53fde2c84f07fd39f368555966aa1c0eb2f2fd26b294d79966e290e"},
	} {
		in := leWords([]byte(c.msg))
		digest, err := hex.DecodeString(c.digest)
		if err != nil {
			t.Fatal(err)
		}
		want := leWords(digest)

		native, err := cohort.NewSHA256().Process(in)
		if err != nil {
			t.Fatal(err)
		}
		for _, got := range []struct {
			wrapper string
			words   []uint64
		}{
			{"cohort.NewSHA256", native},
			{"accel.NewSHADevice", accel.RunDevice(t, accel.NewSHADevice(), in, 4)},
			{"accel.NewAXIStreamSHA", accel.RunStream(t, accel.NewAXIStreamSHA(1), [][]uint64{in})[0]},
		} {
			if !slices.Equal(got.words, want) {
				t.Errorf("%s(%s) = %#x, want %#x", got.wrapper, c.name, got.words, want)
			}
		}
	}
}

// leWords packs b (a multiple of 8 bytes long) into little-endian words.
func leWords(b []byte) []uint64 {
	w := make([]uint64, len(b)/8)
	for i := range w {
		w[i] = binary.LittleEndian.Uint64(b[8*i:])
	}
	return w
}
