package wire

import (
	"bytes"
	"encoding/binary"
	"math"
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
	// The weight is the int32 at byte 2, queue_cap the one at byte 14.
	with32 := func(i int, v int32) []byte {
		p := append([]byte(nil), valid...)
		binary.LittleEndian.PutUint32(p[i:], uint32(v))
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
		"weight past bound":  with32(2, MaxWeight+1),
		"queue_cap 2^31-1":   with32(14, math.MaxInt32),
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
		"weight": {Weight: MaxWeight + 1},
		"queue":  {QueueCap: MaxQueueCap + 1},
	} {
		if _, err := AppendOpen(nil, &req); err == nil {
			t.Errorf("over-long %s encoded without error", name)
		}
	}
	at := OpenRequest{Tenant: "t", Weight: MaxWeight, QueueCap: MaxQueueCap}
	p, err := AppendOpen(nil, &at)
	if err != nil {
		t.Fatalf("an Open at both bounds: %v", err)
	}
	var req OpenRequest
	if err := DecodeOpen(p, &req); err != nil || !equalOpen(req, at) {
		t.Fatalf("an Open at both bounds decoded to %+v %v, want %+v", req, err, at)
	}
}

// TestDoneKeepsConn: only a Done with no Code keeps a reuse connection, and
// a client that decodes the encoded Done reaches the same verdict; a Done
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

// TestOpenFramesAllocationFree: once a Writer is warm, Open, OpenOK and
// Redirect frames cost no allocation.
func TestOpenFramesAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	req := &OpenRequest{Tenant: "tenant", Accel: "sha256", CSR: make([]byte, 16)}
	var sink countWriter
	w := NewWriter(&sink)
	addrs := []string{"10.0.0.1:7411", "10.0.0.2:7411"}
	buf := make([]byte, 0, 64)
	if n := testing.AllocsPerRun(100, func() {
		b, err := AppendOpen(buf[:0], req)
		if err != nil || w.Frame(Open, b) != nil || w.OpenOK(OpenReply{Session: 1}) != nil || w.Redirect(addrs) != nil {
			t.Fatal("write failed")
		}
	}); n != 0 {
		t.Fatalf("%.1f allocations per Open+OpenOK+Redirect, want 0", n)
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

// TestRedirectRoundTrip: a Redirect decodes to the addresses it was built
// from, in order, appended to what the caller passed.
func TestRedirectRoundTrip(t *testing.T) {
	addrs := []string{"127.0.0.1:7411", strings.Repeat("h", maxAddrBytes-6) + ":65535"}
	var buf bytes.Buffer
	if err := NewWriter(&buf).Redirect(addrs); err != nil {
		t.Fatal(err)
	}
	typ, p, err := NewReader(&buf).Next()
	if err != nil || typ != Redirect {
		t.Fatalf("frame = %v %v, want redirect", typ, err)
	}
	got, err := DecodeRedirect(p, []string{"kept"})
	if err != nil || len(got) != 3 || got[0] != "kept" || got[1] != addrs[0] || got[2] != addrs[1] {
		t.Fatalf("decoded %q %v, want kept then %q", got, err, addrs)
	}
	if Redirect.String() != "redirect" {
		t.Fatalf("Redirect.String() = %q", Redirect.String())
	}
}

// TestRedirectRejectsMalformed: every way a Redirect payload can be
// malformed is a decode error that leaves dst as it was, and encoding
// refuses what decoding would.
func TestRedirectRejectsMalformed(t *testing.T) {
	valid, err := AppendRedirect(nil, []string{"a:1", "b:2"})
	if err != nil {
		t.Fatal(err)
	}
	many := []byte{maxRedirectAddrs + 1}
	for i := 0; i <= maxRedirectAddrs; i++ {
		many = append(many, 3, 0, 'a', ':', '1')
	}
	long := binary.LittleEndian.AppendUint16([]byte{1}, maxAddrBytes+1)
	long = append(long, strings.Repeat("x", maxAddrBytes+1)...)
	for name, p := range map[string][]byte{
		"empty":          nil,
		"zero":           {0},
		"too many":       many,
		"empty address":  {1, 0, 0},
		"long address":   long,
		"address short":  valid[:len(valid)-1],
		"no length":      valid[:1],
		"count too high": append([]byte{3}, valid[1:]...),
		"trailing byte":  append(append([]byte(nil), valid...), 0),
	} {
		dst := []string{"kept"}
		got, err := DecodeRedirect(p, dst)
		if err == nil {
			t.Errorf("%s: DecodeRedirect accepted %x as %q", name, p, got)
		}
		if len(got) != 1 || got[0] != "kept" {
			t.Errorf("%s: a refused payload left dst %q", name, got)
		}
	}
	nine := make([]string, maxRedirectAddrs+1)
	for i := range nine {
		nine[i] = "a:1"
	}
	for name, addrs := range map[string][]string{
		"none":          nil,
		"too many":      nine,
		"empty address": {""},
		"long address":  {strings.Repeat("x", maxAddrBytes+1)},
	} {
		if _, err := AppendRedirect(nil, addrs); err == nil {
			t.Errorf("%s: AppendRedirect encoded %q", name, addrs)
		}
	}
	if _, err := AppendRedirect(nil, nine[:maxRedirectAddrs]); err != nil {
		t.Errorf("%d candidates refused: %v", maxRedirectAddrs, err)
	}
}
