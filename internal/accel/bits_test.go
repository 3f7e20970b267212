package accel

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// bitLen returns the number of bits w holds.
func bitLen(w *BitWriter) int {
	if w.nbit == 0 {
		return 8 * len(w.buf)
	}
	return 8*(len(w.buf)-1) + int(w.nbit)
}

func TestBitRoundTrip(t *testing.T) {
	w := &BitWriter{}
	bits := []int{1, 0, 1, 1, 0, 0, 0, 1, 1, 1, 0}
	for _, b := range bits {
		w.WriteBit(b)
	}
	if bitLen(w) != len(bits) {
		t.Fatalf("Len = %d, want %d", bitLen(w), len(bits))
	}
	r := NewBitReader(w.Bytes())
	for i, want := range bits {
		got, err := r.ReadBit()
		if err != nil || got != want {
			t.Fatalf("bit %d: got %d err %v", i, got, err)
		}
	}
}

func TestWriteBitsMSBFirst(t *testing.T) {
	w := &BitWriter{}
	w.WriteBits(0b1011, 4)
	w.WriteBits(0b0001, 4)
	if got := w.Bytes()[0]; got != 0xb1 {
		t.Fatalf("byte = %#x, want 0xb1", got)
	}
}

func TestExpGolombKnownCodes(t *testing.T) {
	// ue(v): 0->1, 1->010, 2->011, 3->00100...
	for v, wantBits := range map[uint32]string{0: "1", 1: "010", 2: "011", 3: "00100", 7: "0001000"} {
		w := &BitWriter{}
		w.WriteUE(v)
		if bitLen(w) != len(wantBits) {
			t.Errorf("ue(%d) length %d, want %d", v, bitLen(w), len(wantBits))
			continue
		}
		r := NewBitReader(w.Bytes())
		for i := 0; i < len(wantBits); i++ {
			b, _ := r.ReadBit()
			if byte('0'+b) != wantBits[i] {
				t.Errorf("ue(%d) bit %d = %d, want %c", v, i, b, wantBits[i])
			}
		}
	}
}

func TestUERoundTripProperty(t *testing.T) {
	f := func(vals []uint32) bool {
		w := &BitWriter{}
		for _, v := range vals {
			w.WriteUE(v % (1 << 20))
		}
		r := NewBitReader(w.Bytes())
		for _, v := range vals {
			got, err := r.ReadUE()
			if err != nil || got != v%(1<<20) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSERoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	w := &BitWriter{}
	vals := make([]int32, 500)
	for i := range vals {
		vals[i] = int32(rng.Intn(2001) - 1000)
		w.WriteSE(vals[i])
	}
	r := NewBitReader(w.Bytes())
	for i, v := range vals {
		got, err := r.ReadSE()
		if err != nil || got != v {
			t.Fatalf("value %d: got %d (err %v), want %d", i, got, err, v)
		}
	}
}

func TestMixedStreamRoundTrip(t *testing.T) {
	w := &BitWriter{}
	w.WriteUE(300)
	w.WriteBits(0x5a, 8)
	w.WriteSE(-42)
	w.WriteBit(1)
	r := NewBitReader(w.Bytes())
	if v, _ := r.ReadUE(); v != 300 {
		t.Fatalf("ue: %d", v)
	}
	if v, _ := r.ReadBits(8); v != 0x5a {
		t.Fatalf("bits: %#x", v)
	}
	if v, _ := r.ReadSE(); v != -42 {
		t.Fatalf("se: %d", v)
	}
	if v, _ := r.ReadBit(); v != 1 {
		t.Fatalf("bit: %d", v)
	}
}

func TestReaderExhaustion(t *testing.T) {
	r := NewBitReader([]byte{0xff})
	if _, err := r.ReadBits(8); err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadBit(); err == nil {
		t.Fatal("read past end succeeded")
	}
	if _, err := NewBitReader(nil).ReadUE(); err == nil {
		t.Fatal("ReadUE on empty stream succeeded")
	}
}
