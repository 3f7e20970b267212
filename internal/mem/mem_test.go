package mem

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAddressArithmetic(t *testing.T) {
	cases := []struct {
		pa         PAddr
		line, page PAddr
		lineOff    uint64
	}{
		{0, 0, 0, 0},
		{63, 0, 0, 63},
		{64, 64, 0, 0},
		{4095, 4032, 0, 63},
		{4096, 4096, 4096, 0},
		{0x12345, 0x12340, 0x12000, 5},
	}
	for _, c := range cases {
		if LineOf(c.pa) != c.line {
			t.Errorf("LineOf(%#x) = %#x, want %#x", c.pa, LineOf(c.pa), c.line)
		}
		if PageOf(c.pa) != c.page {
			t.Errorf("PageOf(%#x) = %#x, want %#x", c.pa, PageOf(c.pa), c.page)
		}
		if LineOffset(c.pa) != c.lineOff {
			t.Errorf("LineOffset(%#x) = %d, want %d", c.pa, LineOffset(c.pa), c.lineOff)
		}
	}
	if !SameLine(65, 127) || SameLine(63, 64) {
		t.Error("SameLine boundary behaviour wrong")
	}
}

func TestZeroFill(t *testing.T) {
	m := New()
	buf := make([]byte, 100)
	for i := range buf {
		buf[i] = 0xff
	}
	m.Read(0x10000, buf)
	for i, b := range buf {
		if b != 0 {
			t.Fatalf("untouched byte %d reads %#x, want 0", i, b)
		}
	}
}

func TestReadWriteCrossesPages(t *testing.T) {
	m := New()
	data := make([]byte, 3*PageSize)
	rng := rand.New(rand.NewSource(1))
	rng.Read(data)
	base := PAddr(PageSize - 17) // deliberately unaligned, spans 4 pages
	m.Write(base, data)
	got := make([]byte, len(data))
	m.Read(base, got)
	if !bytes.Equal(got, data) {
		t.Fatal("page-crossing write/read mismatch")
	}
}

func TestU64RoundTripAndEndianness(t *testing.T) {
	m := New()
	m.WriteU64(64, 0x0123456789abcdef)
	if got := m.ReadU64(64); got != 0x0123456789abcdef {
		t.Fatalf("ReadU64 = %#x", got)
	}
	var b [8]byte
	m.Read(64, b[:])
	if b[0] != 0xef || b[7] != 0x01 {
		t.Fatalf("not little-endian: % x", b)
	}
}

func TestUnalignedU64Panics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unaligned ReadU64 did not panic")
		}
	}()
	New().ReadU64(3)
}

func TestLineRoundTrip(t *testing.T) {
	m := New()
	var line [LineSize]byte
	for i := range line {
		line[i] = byte(i * 3)
	}
	m.WriteLine(130, line) // any address within the line works
	var got [LineSize]byte
	m.Read(LineOf(128), got[:])
	if got != line {
		t.Fatal("line round trip mismatch")
	}
}

// Property: a write followed by a read of the same span returns the data, for
// arbitrary addresses and lengths.
func TestWriteReadProperty(t *testing.T) {
	m := New()
	f := func(addr uint32, data []byte) bool {
		if len(data) > 16*1024 {
			data = data[:16*1024]
		}
		pa := PAddr(addr)
		m.Write(pa, data)
		got := make([]byte, len(data))
		m.Read(pa, got)
		return bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestFrameAllocator(t *testing.T) {
	a := NewFrameAllocator(0x8000_0000, 4*PageSize)
	seen := map[PAddr]bool{}
	for i := 0; i < 4; i++ {
		pa, err := a.Alloc()
		if err != nil {
			t.Fatalf("Alloc %d: %v", i, err)
		}
		if pa%PageSize != 0 {
			t.Fatalf("frame %#x not page aligned", pa)
		}
		if seen[pa] {
			t.Fatalf("frame %#x handed out twice", pa)
		}
		seen[pa] = true
	}
	if _, err := a.Alloc(); err == nil {
		t.Fatal("Alloc past region end succeeded")
	}
}

func TestFrameAllocatorAligned(t *testing.T) {
	a := NewFrameAllocator(PageSize, 64*PageSize)
	if _, err := a.Alloc(); err != nil {
		t.Fatal(err)
	}
	pa, err := a.AllocAligned(2*PageSize, 8*PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if pa%(8*PageSize) != 0 {
		t.Fatalf("AllocAligned returned %#x, not 8-page aligned", pa)
	}
	if _, err := a.AllocAligned(1<<30, PageSize); err == nil {
		t.Fatal("oversized AllocAligned succeeded")
	}
}

func TestFrameAllocatorRejectsUnaligned(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unaligned region accepted")
		}
	}()
	NewFrameAllocator(100, PageSize)
}
