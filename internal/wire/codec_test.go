package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"math/rand"
	"net"
	"testing"

	"cohort"
)

// refEncode is the test-local oracle: the little-endian wire bytes of ws,
// built with the stdlib only.
func refEncode(ws []cohort.Word) []byte {
	b := make([]byte, len(ws)*WordBytes)
	for i, w := range ws {
		binary.LittleEndian.PutUint64(b[i*WordBytes:], uint64(w))
	}
	return b
}

func randWords(r *rand.Rand, n int) []cohort.Word {
	ws := make([]cohort.Word, n)
	for i := range ws {
		ws[i] = cohort.Word(r.Uint64())
	}
	return ws
}

// TestCodecProperty: the generic encoder/decoder and (on little-endian
// hosts) the zero-copy byte view all agree with the stdlib oracle, for many
// random sizes and values. This covers both endian paths of the codec: the
// generic functions run everywhere, and the unsafe view is checked against
// them wherever it is the live path.
func TestCodecProperty(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		ws := randWords(r, r.Intn(300))
		want := refEncode(ws)

		dst := make([]byte, len(ws)*WordBytes)
		encodeWords(dst, ws)
		if !bytes.Equal(dst, want) {
			t.Fatalf("trial %d: encodeWords mismatch", trial)
		}

		back := make([]cohort.Word, len(ws))
		decodeWords(back, want)
		for i := range ws {
			if back[i] != ws[i] {
				t.Fatalf("trial %d: decodeWords word %d = %#x, want %#x", trial, i, back[i], ws[i])
			}
		}

		if hostLittle {
			if got := wordsBytes(ws); len(ws) > 0 && !bytes.Equal(got, want) {
				t.Fatalf("trial %d: wordsBytes view disagrees with reference encoding", trial)
			}
		}

		// In-place decode: read payload bytes into a word buffer's byte view,
		// then decode over the same memory — the big-endian reader path,
		// exercised here on every host.
		inplace := make([]cohort.Word, len(ws))
		if len(ws) > 0 {
			copy(wordsBytes(inplace), want)
			decodeWords(inplace, wordsBytes(inplace))
			for i := range ws {
				if inplace[i] != ws[i] {
					t.Fatalf("trial %d: in-place decode word %d = %#x, want %#x", trial, i, inplace[i], ws[i])
				}
			}
		}
	}
}

// TestWordsWritersAgree: the zero-copy writer (Words/WordsN, any segment
// split) and the legacy copying writer (WordsCopy) emit byte-identical
// frames, and NextData and the byte-decoders read all of them back.
func TestWordsWritersAgree(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for trial := 0; trial < 100; trial++ {
		ws := randWords(r, 1+r.Intn(200))

		var legacy, fast, multi bytes.Buffer
		if err := NewWriter(&legacy).WordsCopy(ws); err != nil {
			t.Fatal(err)
		}
		if err := NewWriter(&fast).Words(ws); err != nil {
			t.Fatal(err)
		}
		cut := r.Intn(len(ws) + 1)
		if err := NewWriter(&multi).WordsN(ws[:cut], ws[cut:]); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(legacy.Bytes(), fast.Bytes()) {
			t.Fatalf("trial %d: Words and WordsCopy frames differ", trial)
		}
		if !bytes.Equal(legacy.Bytes(), multi.Bytes()) {
			t.Fatalf("trial %d: WordsN(split at %d) frame differs", trial, cut)
		}

		typ, got, _, err := NewReader(&fast).NextData()
		if err != nil || typ != Data {
			t.Fatalf("trial %d: NextData = %v %v", trial, typ, err)
		}
		if len(got) != len(ws) {
			t.Fatalf("trial %d: NextData %d words, want %d", trial, len(got), len(ws))
		}
		for i := range ws {
			if got[i] != ws[i] {
				t.Fatalf("trial %d: word %d = %#x, want %#x", trial, i, got[i], ws[i])
			}
		}
	}
}

// writeCounter is a net.Conn that is not a socket (as a wrapped or
// in-memory connection is): it records each Write.
type writeCounter struct {
	net.Conn
	writes [][]byte
}

func (w *writeCounter) Write(p []byte) (int, error) {
	w.writes = append(w.writes, bytes.Clone(p))
	return len(p), nil
}

// TestWordsDoneMatchesTwoFrames: a Data frame and a Done written together
// (WordsDone, any segment split) are byte for byte the reference codec's
// Data frame (WordsCopy) followed by a separately written Done, and read
// back frame for frame. On a connection they are one write.
func TestWordsDoneMatchesTwoFrames(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	done, err := json.Marshal(DoneReply{Blocks: 3, WordsIn: 12, WordsOut: 12})
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 100; trial++ {
		ws := randWords(r, 1+r.Intn(200))
		cut := r.Intn(len(ws) + 1)

		var ref, got bytes.Buffer
		if err := NewWriter(&ref).WordsCopy(ws); err != nil {
			t.Fatal(err)
		}
		if err := NewWriter(&ref).Frame(Done, done); err != nil {
			t.Fatal(err)
		}
		if err := NewWriter(&got).WordsDone(done, ws[:cut], ws[cut:]); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ref.Bytes(), got.Bytes()) {
			t.Fatalf("trial %d: WordsDone(split at %d) differs from WordsCopy + Frame(Done)", trial, cut)
		}

		conn := &writeCounter{}
		if err := NewWriter(conn).WordsDone(done, ws[:cut], ws[cut:]); err != nil {
			t.Fatal(err)
		}
		if len(conn.writes) != 1 || !bytes.Equal(conn.writes[0], ref.Bytes()) {
			t.Fatalf("trial %d: WordsDone made %d writes on a connection, want 1 of the same bytes", trial, len(conn.writes))
		}

		rd := NewReader(&got)
		typ, words, _, err := rd.NextData()
		if err != nil || typ != Data || len(words) != len(ws) {
			t.Fatalf("trial %d: frame 1 = %v, %d words, %v; want data, %d words", trial, typ, len(words), err, len(ws))
		}
		for i := range ws {
			if words[i] != ws[i] {
				t.Fatalf("trial %d: word %d = %#x, want %#x", trial, i, words[i], ws[i])
			}
		}
		typ, _, payload, err := rd.NextData()
		if err != nil || typ != Done || !bytes.Equal(payload, done) {
			t.Fatalf("trial %d: frame 2 = %v %q %v, want the done", trial, typ, payload, err)
		}
		if _, _, _, err := rd.NextData(); err != io.EOF {
			t.Fatalf("trial %d: after the done: %v, want EOF", trial, err)
		}
	}
}

// TestNextDataControlFrames: NextData passes control frames through like
// Next and keeps deframing Data after them.
func TestNextDataControlFrames(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := writeOpen(w, &OpenRequest{Tenant: "t", Accel: "null"}); err != nil {
		t.Fatal(err)
	}
	if err := w.Words([]cohort.Word{7, 8, 9}); err != nil {
		t.Fatal(err)
	}
	if err := w.Frame(CloseSend, nil); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&buf)
	typ, ws, payload, err := r.NextData()
	if err != nil || typ != Open || ws != nil {
		t.Fatalf("frame 1 = %v ws=%v err=%v, want open control", typ, ws, err)
	}
	var req OpenRequest
	if err := DecodeOpen(payload, &req); err != nil || req.Accel != "null" {
		t.Fatalf("open decode: %+v %v", req, err)
	}
	typ, ws, _, err = r.NextData()
	if err != nil || typ != Data || len(ws) != 3 || ws[0] != 7 || ws[2] != 9 {
		t.Fatalf("frame 2 = %v %v %v, want data [7 8 9]", typ, ws, err)
	}
	typ, ws, payload, err = r.NextData()
	if err != nil || typ != CloseSend || ws != nil || len(payload) != 0 {
		t.Fatalf("frame 3 = %v %v %v, want close-send", typ, ws, err)
	}
	if _, _, _, err := r.NextData(); err != io.EOF {
		t.Fatalf("exhausted NextData err = %v, want io.EOF", err)
	}
}

// TestMisalignedDataRejectedAtDeframe: a Data frame whose length is not a
// word multiple fails in Next/NextData itself — the header is enough; the
// payload is never read. (Before, only some call paths caught this, and only
// after reading the full payload.)
func TestMisalignedDataRejectedAtDeframe(t *testing.T) {
	raw := []byte{byte(Data), 0, 0, 0, 12}
	raw = append(raw, make([]byte, 12)...)
	if _, _, err := NewReader(bytes.NewReader(raw)).Next(); err == nil {
		t.Error("Next accepted a 12-byte data payload")
	}
	if _, _, _, err := NewReader(bytes.NewReader(raw)).NextData(); err == nil {
		t.Error("NextData accepted a 12-byte data payload")
	}
	// Control frames may be any length: 12 bytes of JSON-ish payload is fine
	// at the framing layer.
	ctl := []byte{byte(Done), 0, 0, 0, 2, '{', '}'}
	if typ, _, err := NewReader(bytes.NewReader(ctl)).Next(); err != nil || typ != Done {
		t.Errorf("control frame rejected: %v %v", typ, err)
	}
}

// TestRetentionCapped: one oversized frame must not leave a frame-sized
// buffer pinned on the Reader or Writer — idle connections shed big buffers
// back to the allocator.
func TestRetentionCapped(t *testing.T) {
	big := make([]cohort.Word, (maxRetain/WordBytes)*4)

	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WordsCopy(big); err != nil { // the copying path exercises scratch
		t.Fatal(err)
	}
	if cap(w.buf) > maxRetain {
		t.Errorf("writer retains %d bytes after a %d-byte frame, cap is %d",
			cap(w.buf), len(big)*WordBytes, maxRetain)
	}

	r := NewReader(&buf)
	if _, _, err := r.Next(); err != nil {
		t.Fatal(err)
	}
	if cap(r.buf) > maxRetain {
		t.Errorf("reader retains %d bytes after a big frame, cap is %d", cap(r.buf), maxRetain)
	}

	// The word pool likewise refuses oversized buffers.
	it := getWords(maxPoolWords * 2)
	putWords(it)
	if got := getWords(1); cap(got.ws) > maxPoolWords {
		t.Errorf("pool handed back an oversized %d-word buffer", cap(got.ws))
	}
}

// TestReaderRelease: the slice handed out by NextData is recycled on the
// following call, and an explicit release is idempotent.
func TestReaderRelease(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for i := 0; i < 3; i++ {
		if err := w.Words([]cohort.Word{cohort.Word(i)}); err != nil {
			t.Fatal(err)
		}
	}
	r := NewReader(&buf)
	_, ws1, _, err := r.NextData()
	if err != nil || ws1[0] != 0 {
		t.Fatalf("frame 0: %v %v", ws1, err)
	}
	_, ws2, _, err := r.NextData()
	if err != nil || ws2[0] != 1 {
		t.Fatalf("frame 1: %v %v", ws2, err)
	}
	r.release()
	r.release()
	_, ws3, _, err := r.NextData()
	if err != nil || ws3[0] != 2 {
		t.Fatalf("frame 2: %v %v", ws3, err)
	}
}

// loopSrc replays one encoded frame forever without allocating — an infinite
// connection for steady-state alloc measurements.
type loopSrc struct {
	frame []byte
	off   int
}

func (l *loopSrc) Read(p []byte) (int, error) {
	n := copy(p, l.frame[l.off:])
	l.off = (l.off + n) % len(l.frame)
	return n, nil
}

// TestWireSteadyStateAllocs: encoding a Data frame (zero-copy writer) and
// decoding one (pooled NextData) allocate nothing at steady state.
func TestWireSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector; zero-alloc steady state holds only in normal builds")
	}
	ws := randWords(rand.New(rand.NewSource(3)), 64)
	w := NewWriter(io.Discard)
	if avg := testing.AllocsPerRun(200, func() {
		if err := w.Words(ws); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("Words allocates %.2f/frame at steady state, want 0", avg)
	}
	if avg := testing.AllocsPerRun(200, func() {
		if err := w.WordsN(ws[:20], ws[20:]); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("WordsN allocates %.2f/frame at steady state, want 0", avg)
	}

	var buf bytes.Buffer
	if err := NewWriter(&buf).Words(ws); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&loopSrc{frame: buf.Bytes()})
	if _, _, _, err := r.NextData(); err != nil { // warm the pool
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(200, func() {
		if _, got, _, err := r.NextData(); err != nil || len(got) != len(ws) {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("NextData allocates %.2f/frame at steady state, want 0", avg)
	}
}

// Benchmarks: the legacy copying codec against the zero-copy scatter-gather
// path, encode and decode, at a small and a coalesced frame size. CI logs
// these next to the root-package benches in BENCH_ci.json.

func benchWriter(b *testing.B, n int, words func(*Writer, []cohort.Word) error) {
	ws := randWords(rand.New(rand.NewSource(4)), n)
	w := NewWriter(io.Discard)
	b.SetBytes(int64(n * WordBytes))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := words(w, ws); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWireEncodeCopy64(b *testing.B)   { benchWriter(b, 64, (*Writer).WordsCopy) }
func BenchmarkWireEncodeZero64(b *testing.B)   { benchWriter(b, 64, (*Writer).Words) }
func BenchmarkWireEncodeCopy4096(b *testing.B) { benchWriter(b, 4096, (*Writer).WordsCopy) }
func BenchmarkWireEncodeZero4096(b *testing.B) { benchWriter(b, 4096, (*Writer).Words) }

func benchReader(b *testing.B, n int, pooled bool) {
	ws := randWords(rand.New(rand.NewSource(5)), n)
	var buf bytes.Buffer
	if err := NewWriter(&buf).Words(ws); err != nil {
		b.Fatal(err)
	}
	r := NewReader(&loopSrc{frame: buf.Bytes()})
	b.SetBytes(int64(n * WordBytes))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if pooled {
			if _, got, _, err := r.NextData(); err != nil || len(got) != n {
				b.Fatal(err)
			}
		} else {
			_, payload, err := r.Next()
			if err != nil {
				b.Fatal(err)
			}
			if _, err := AppendWords(nil, payload); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkWireDecodeAlloc64(b *testing.B)    { benchReader(b, 64, false) }
func BenchmarkWireDecodePooled64(b *testing.B)   { benchReader(b, 64, true) }
func BenchmarkWireDecodeAlloc4096(b *testing.B)  { benchReader(b, 4096, false) }
func BenchmarkWireDecodePooled4096(b *testing.B) { benchReader(b, 4096, true) }
