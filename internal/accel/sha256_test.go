package accel

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSHA256NISTVectors(t *testing.T) {
	cases := []struct{ in, want string }{
		{"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
		{"abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"},
		{"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
			"248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"},
	}
	for _, c := range cases {
		got := SHA256Sum([]byte(c.in))
		if hex.EncodeToString(got[:]) != c.want {
			t.Errorf("SHA256(%q) = %x, want %s", c.in, got, c.want)
		}
	}
}

func TestSHA256MatchesStdlibAcrossSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{1, 55, 56, 63, 64, 65, 127, 128, 1000, 4096, 100000} {
		data := make([]byte, n)
		rng.Read(data)
		got := SHA256Sum(data)
		want := sha256.Sum256(data)
		if got != want {
			t.Fatalf("size %d: digest mismatch", n)
		}
	}
}

func TestSHA256IncrementalWriteSplits(t *testing.T) {
	data := make([]byte, 1025)
	rand.New(rand.NewSource(5)).Read(data)
	want := sha256.Sum256(data)
	for _, split := range []int{1, 7, 63, 64, 65, 512} {
		d := NewSHA256()
		for i := 0; i < len(data); i += split {
			end := i + split
			if end > len(data) {
				end = len(data)
			}
			d.Write(data[i:end])
		}
		if d.Sum() != want {
			t.Fatalf("split %d: digest mismatch", split)
		}
	}
}

func TestSHA256SumIsIdempotent(t *testing.T) {
	d := NewSHA256()
	d.Write([]byte("hello"))
	a := d.Sum()
	b := d.Sum()
	if a != b {
		t.Fatal("Sum mutated hasher state")
	}
	d.Write([]byte(" world"))
	if d.Sum() != SHA256Sum([]byte("hello world")) {
		t.Fatal("writes after Sum corrupt state")
	}
}

func TestSHA256Reset(t *testing.T) {
	d := NewSHA256()
	d.Write([]byte("garbage"))
	d.Reset()
	d.Write([]byte("abc"))
	if d.Sum() != SHA256Sum([]byte("abc")) {
		t.Fatal("Reset did not restore initial state")
	}
}

func TestSHA256Property(t *testing.T) {
	f := func(data []byte) bool {
		got := SHA256Sum(data)
		want := sha256.Sum256(data)
		return bytes.Equal(got[:], want[:])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestSHA256Sum64Property: the single-block path agrees with the general
// hasher and with crypto/sha256 on arbitrary 64-byte messages.
func TestSHA256Sum64Property(t *testing.T) {
	f := func(block [SHA256BlockSize]byte) bool {
		got := SHA256Sum64(&block)
		return got == SHA256Sum(block[:]) && got == sha256.Sum256(block[:])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}
