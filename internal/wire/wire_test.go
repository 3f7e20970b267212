package wire

import (
	"bytes"
	"io"
	"testing"

	"cohort"
)

// writeOpen sends req as an Open frame the way the client does: AppendOpen,
// then one Frame.
func writeOpen(w *Writer, req *OpenRequest) error {
	b, err := AppendOpen(nil, req)
	if err != nil {
		return err
	}
	return w.Frame(Open, b)
}

// TestFrameRoundTrip: control and data frames survive encode → decode, and
// the reader hands frames back in order.
func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := writeOpen(w, &OpenRequest{Tenant: "t", Accel: "sha256", Weight: 2}); err != nil {
		t.Fatal(err)
	}
	words := []cohort.Word{0, 1, 1 << 63, ^cohort.Word(0)}
	if err := w.Words(words); err != nil {
		t.Fatal(err)
	}
	if err := w.Frame(CloseSend, nil); err != nil {
		t.Fatal(err)
	}

	r := NewReader(&buf)
	typ, payload, err := r.Next()
	if err != nil || typ != Open {
		t.Fatalf("frame 1 = %v %v, want open", typ, err)
	}
	var req OpenRequest
	if err := DecodeOpen(payload, &req); err != nil {
		t.Fatal(err)
	}
	if req.Tenant != "t" || req.Accel != "sha256" || req.Weight != 2 {
		t.Fatalf("open decoded as %+v", req)
	}
	typ, payload, err = r.Next()
	if err != nil || typ != Data {
		t.Fatalf("frame 2 = %v %v, want data", typ, err)
	}
	got, err := AppendWords(nil, payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(words) {
		t.Fatalf("decoded %d words, want %d", len(got), len(words))
	}
	for i := range words {
		if got[i] != words[i] {
			t.Fatalf("word %d = %#x, want %#x", i, got[i], words[i])
		}
	}
	typ, payload, err = r.Next()
	if err != nil || typ != CloseSend || len(payload) != 0 {
		t.Fatalf("frame 3 = %v (%d bytes) %v, want empty close-send", typ, len(payload), err)
	}
	if _, _, err := r.Next(); err != io.EOF {
		t.Fatalf("exhausted reader err = %v, want io.EOF", err)
	}
}

// TestReaderRejectsGarbage: invalid types, oversized lengths and truncated
// payloads are errors, not allocations or hangs.
func TestReaderRejectsGarbage(t *testing.T) {
	cases := map[string][]byte{
		"invalid type":      {0, 0, 0, 0, 0},
		"type out of range": {99, 0, 0, 0, 0},
		"oversized length":  {byte(Data), 0xff, 0xff, 0xff, 0xff},
		"truncated payload": {byte(Data), 0, 0, 0, 16, 1, 2, 3},
	}
	for name, raw := range cases {
		if _, _, err := NewReader(bytes.NewReader(raw)).Next(); err == nil {
			t.Errorf("%s: no error", name)
		}
	}
}

// TestWordsAlignment: a non-word-multiple data payload is rejected.
func TestWordsAlignment(t *testing.T) {
	if _, err := AppendWords(nil, make([]byte, 12)); err == nil {
		t.Error("12-byte payload decoded without error")
	}
}
