package accel

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"testing"

	"cohort/internal/sim"
)

// runStream feeds framed packets through an AXI-Stream device.
func runStream(t *testing.T, d *AXIStreamDevice, packets [][]uint64) [][]uint64 {
	t.Helper()
	k := sim.New()
	in := sim.NewQueue[uint64](k, 4)
	out := sim.NewQueue[uint64](k, 4)
	d.Start(k, in, out)
	k.Spawn("feeder", func(p *sim.Proc) {
		for _, pkt := range packets {
			in.Put(p, uint64(len(pkt)))
			for _, w := range pkt {
				in.Put(p, w)
			}
		}
	})
	var got [][]uint64
	k.Spawn("drain", func(p *sim.Proc) {
		for range packets {
			n := out.Get(p)
			pkt := make([]uint64, 0, n)
			for i := uint64(0); i < n; i++ {
				pkt = append(pkt, out.Get(p))
			}
			got = append(got, pkt)
		}
	})
	k.Run(0)
	if len(got) != len(packets) {
		t.Fatalf("received %d packets, want %d", len(got), len(packets))
	}
	return got
}

func TestAXIStreamLoopbackFraming(t *testing.T) {
	d := NewAXIStreamLoopback(1)
	packets := [][]uint64{{1, 2, 3}, {}, {42}, {7, 7, 7, 7, 7, 7, 7, 7, 7}}
	got := runStream(t, d, packets)
	for i, pkt := range packets {
		if len(got[i]) != len(pkt) {
			t.Fatalf("packet %d: %d beats, want %d (TLAST framing broken)", i, len(got[i]), len(pkt))
		}
		for j := range pkt {
			if got[i][j] != pkt[j] {
				t.Fatalf("packet %d beat %d mismatch", i, j)
			}
		}
	}
	if d.Blocks() != uint64(len(packets)) {
		t.Fatalf("packets = %d", d.Blocks())
	}
	// Every beat is counted once on the way in and once on the way out.
	beats := 0
	for _, pkt := range packets {
		beats += 2 * len(pkt)
	}
	if d.Beats() != uint64(beats) {
		t.Fatalf("beats = %d, want %d", d.Beats(), beats)
	}
}

func TestAXIStreamSHAVariableLengthMessages(t *testing.T) {
	// TLAST delimits the message: three different-sized inputs through one
	// device, each hashed as a unit.
	d := NewAXIStreamSHA(1)
	rng := rand.New(rand.NewSource(41))
	var packets [][]uint64
	var want [][32]byte
	for _, beats := range []int{1, 8, 33} {
		msg := make([]byte, beats*8)
		rng.Read(msg)
		packets = append(packets, BytesToWords(msg))
		want = append(want, sha256.Sum256(msg))
	}
	got := runStream(t, d, packets)
	for i := range packets {
		if !bytes.Equal(WordsToBytes(got[i]), want[i][:]) {
			t.Fatalf("message %d digest mismatch", i)
		}
	}
}

// TestSHA256NISTVectors: the NIST SHA-256 example messages that fill whole
// beats (448 and 896 bits), each as one multi-beat packet, against the
// published digests.
func TestSHA256NISTVectors(t *testing.T) {
	cases := []struct{ in, want string }{
		{"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
			"248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"},
		{"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
			"cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"},
	}
	for _, c := range cases {
		got := runStream(t, NewAXIStreamSHA(1), [][]uint64{BytesToWords([]byte(c.in))})[0]
		if hex.EncodeToString(WordsToBytes(got)) != c.want {
			t.Errorf("SHA256(%q) = %x, want %s", c.in, WordsToBytes(got), c.want)
		}
	}
}

func TestAXIStreamBeatLatencyAccumulates(t *testing.T) {
	run := func(lat sim.Time) sim.Time {
		k := sim.New()
		in := sim.NewQueue[uint64](k, 64)
		out := sim.NewQueue[uint64](k, 64)
		NewAXIStreamLoopback(lat).Start(k, in, out)
		var done sim.Time
		k.Spawn("p", func(p *sim.Proc) {
			in.Put(p, 16)
			for i := 0; i < 16; i++ {
				in.Put(p, uint64(i))
			}
			n := out.Get(p)
			for i := uint64(0); i < n; i++ {
				out.Get(p)
			}
			done = p.Now()
		})
		k.Run(0)
		return done
	}
	if fast, slow := run(1), run(50); slow < fast+16*40 {
		t.Fatalf("beat latency not charged: %d vs %d", slow, fast)
	}
}
