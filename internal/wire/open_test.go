package wire

import (
	"bytes"
	"strings"
	"testing"
)

// TestOpenRejectsMalformed: every way an Open payload can be malformed is a
// decode error, and encoding refuses fields wider than the layout.
func TestOpenRejectsMalformed(t *testing.T) {
	valid, err := AppendOpen(nil, &OpenRequest{Tenant: "t", Accel: "sha256", CSR: []byte{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	with := func(i int, b byte) []byte {
		p := append([]byte(nil), valid...)
		p[i] = b
		return p
	}
	cases := map[string][]byte{
		"empty":              nil,
		"json":               []byte(`{"tenant":"t","accel":"sha256"}`),
		"short fixed part":   valid[:openFixed-1],
		"version":            with(0, openVersion+1),
		"unknown flag":       with(1, 1<<7),
		"tenant past end":    with(openFixed, 200),
		"csr past end":       valid[:len(valid)-1],
		"no csr length":      valid[:len(valid)-4],
		"trailing byte":      append(append([]byte(nil), valid...), 0),
		"accel length short": with(openFixed+2, 7),
	}
	for name, p := range cases {
		var req OpenRequest
		if err := DecodeOpen(p, &req); err == nil {
			t.Errorf("%s: DecodeOpen accepted %x as %+v", name, p, req)
		}
		if _, _, err := OpenTenant(p); err == nil {
			t.Errorf("%s: OpenTenant accepted %x", name, p)
		}
	}
	for name, req := range map[string]OpenRequest{
		"tenant": {Tenant: strings.Repeat("x", maxTenantBytes+1)},
		"accel":  {Accel: strings.Repeat("x", maxAccelBytes+1)},
		"csr":    {CSR: make([]byte, maxCSRBytes+1)},
	} {
		if _, err := AppendOpen(nil, &req); err == nil {
			t.Errorf("over-long %s encoded without error", name)
		}
	}
}

// TestReuseOpenCopies: ReuseOpen sends the payload with only the reuse flag
// changed and leaves the caller's bytes alone.
func TestReuseOpenCopies(t *testing.T) {
	p, err := AppendOpen(nil, &OpenRequest{Tenant: "t", Accel: "null", Timing: true})
	if err != nil {
		t.Fatal(err)
	}
	orig := append([]byte(nil), p...)
	var buf bytes.Buffer
	if err := NewWriter(&buf).ReuseOpen(p); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p, orig) {
		t.Fatal("ReuseOpen modified its input")
	}
	typ, got, err := NewReader(&buf).Next()
	if err != nil || typ != Open {
		t.Fatalf("frame = %v %v, want open", typ, err)
	}
	_, before, _ := OpenTenant(p)
	_, after, _ := OpenTenant(got)
	if before || !after {
		t.Fatalf("OpenTenant reuse = %v before and %v after ReuseOpen, want false and true", before, after)
	}
	var req OpenRequest
	if err := DecodeOpen(got, &req); err != nil {
		t.Fatal(err)
	}
	if want := (OpenRequest{Tenant: "t", Accel: "null", Timing: true, Reuse: true}); !equalOpen(req, want) {
		t.Fatalf("decoded %+v, want %+v", req, want)
	}
}

// TestDoneKeepsConn: only a Done with no Code keeps a reuse connection, and
// a relay that decodes the encoded Done reaches the same verdict; a Done
// that does not decode keeps nothing.
func TestDoneKeepsConn(t *testing.T) {
	tel := TelemetryReply{}
	for _, c := range []struct {
		name string
		done DoneReply
		want bool
	}{
		{"clean", DoneReply{Blocks: 4, WordsIn: 32, WordsOut: 32}, true},
		{"clean with timing", DoneReply{Blocks: 1, Timing: &tel}, true},
		{"quota", DoneReply{Err: "quota exceeded", Code: CodeQuota}, false},
		{"shutdown", DoneReply{Err: "closed", Code: CodeClosed}, false},
	} {
		if got := KeepsConn(true, true, &c.done); got != c.want {
			t.Errorf("%s: KeepsConn = %v, want %v", c.name, got, c.want)
		}
		var buf bytes.Buffer
		if err := NewWriter(&buf).JSON(Done, c.done); err != nil {
			t.Fatal(err)
		}
		_, payload, err := NewReader(&buf).Next()
		if err != nil {
			t.Fatal(err)
		}
		var decoded DoneReply
		if err := Unmarshal(Done, payload, &decoded); err != nil {
			t.Fatal(err)
		}
		if got := KeepsConn(true, true, &decoded); got != c.want {
			t.Errorf("%s: KeepsConn of decoded %s = %v, want %v", c.name, payload, got, c.want)
		}
	}
	if Unmarshal(Done, []byte("{not json"), &DoneReply{}) == nil || KeepsConn(true, true, nil) {
		t.Error("an undecodable Done keeps the connection")
	}
}

// TestOpenReplyRoundTrip: OpenOK encodes to its fixed size and back, and
// any other size is rejected.
func TestOpenReplyRoundTrip(t *testing.T) {
	rep := OpenReply{Session: 1<<63 + 5, InWords: 8, OutWords: 4}
	var buf bytes.Buffer
	if err := NewWriter(&buf).OpenOK(rep); err != nil {
		t.Fatal(err)
	}
	typ, p, err := NewReader(&buf).Next()
	if err != nil || typ != OpenOK || len(p) != openReplyBytes {
		t.Fatalf("frame = %v (%d bytes) %v", typ, len(p), err)
	}
	got, err := DecodeOpenReply(p)
	if err != nil || got != rep {
		t.Fatalf("decoded %+v %v, want %+v", got, err, rep)
	}
	if _, err := DecodeOpenReply(append(p, 0)); err == nil {
		t.Fatal("17-byte open-ok accepted")
	}
}

// TestOpenFramesAllocationFree: once a Writer is warm, Open, ReuseOpen and
// OpenOK frames cost no allocation.
func TestOpenFramesAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	req := &OpenRequest{Tenant: "tenant", Accel: "sha256", CSR: make([]byte, 16)}
	p, err := AppendOpen(nil, req)
	if err != nil {
		t.Fatal(err)
	}
	var sink countWriter
	w := NewWriter(&sink)
	if n := testing.AllocsPerRun(100, func() {
		if w.Open(req) != nil || w.ReuseOpen(p) != nil || w.OpenOK(OpenReply{Session: 1}) != nil {
			t.Fatal("write failed")
		}
	}); n != 0 {
		t.Fatalf("%.1f allocations per Open+ReuseOpen+OpenOK, want 0", n)
	}
}

// countWriter discards what it is given.
type countWriter struct{ n int }

func (w *countWriter) Write(p []byte) (int, error) { w.n += len(p); return len(p), nil }

func equalOpen(a, b OpenRequest) bool {
	return a.Tenant == b.Tenant && a.Accel == b.Accel && bytes.Equal(a.CSR, b.CSR) &&
		a.Weight == b.Weight && a.Quota == b.Quota && a.QueueCap == b.QueueCap &&
		a.Timing == b.Timing && a.Reuse == b.Reuse
}
