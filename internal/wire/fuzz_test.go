package wire

import (
	"bytes"
	"io"
	"reflect"
	"testing"

	"cohort"
)

// FuzzReader throws arbitrary byte streams at both deframers and checks the
// invariants that the serving stack leans on: no panic, no crash, no frame
// type out of use (past Doorbell, or the retired 7), no Doorbell with a
// payload, every returned Data payload word-aligned and within
// MaxFrame, and Next/NextData agreeing frame for frame on the same input. The seed corpus
// (testdata/fuzz/FuzzReader) pins the interesting shapes: valid
// conversations, truncated headers, truncated payloads, oversized lengths,
// invalid types and misaligned Data.
func FuzzReader(f *testing.F) {
	// A valid little conversation: a binary Open, a 3-word Data frame,
	// CloseSend.
	var valid bytes.Buffer
	w := NewWriter(&valid)
	if err := writeOpen(w, &OpenRequest{Tenant: "t", Accel: "sha256"}); err != nil {
		f.Fatal(err)
	}
	if err := w.Words([]cohort.Word{1, 2, 3}); err != nil {
		f.Fatal(err)
	}
	if err := w.Frame(CloseSend, nil); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add([]byte{})                                                               // empty stream: clean EOF
	f.Add([]byte{byte(Data), 0})                                                  // truncated header
	f.Add([]byte{0, 0, 0, 0, 0})                                                  // zero type
	f.Add([]byte{99, 0, 0, 0, 0})                                                 // type out of range
	f.Add([]byte{byte(Data), 0xff, 0xff, 0xff, 0xff})                             // oversized length
	f.Add([]byte{byte(Data), 0, 0, 0, 12, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}) // misaligned data
	f.Add([]byte{byte(Data), 0, 0, 0, 16, 1, 2, 3})                               // truncated payload
	f.Add([]byte{byte(Done), 0, 0, 0, 2, '{', '}'})                               // control frame
	f.Add([]byte{byte(Redirect), 0, 0, 0, 6, 1, 3, 0, 'a', ':', '1'})             // redirect frame
	f.Add([]byte{byte(Doorbell), 0, 0, 0, 0, byte(Doorbell), 0, 0, 0, 0})         // two doorbells
	f.Add([]byte{byte(Doorbell), 0, 0, 0, 1, 0})                                  // a doorbell with a payload
	f.Add([]byte{byte(Doorbell) + 1, 0, 0, 0, 0})                                 // first type past the last
	f.Add([]byte{7, 0, 0, 0, 2, '{', '}'})                                        // the retired type 7

	f.Fuzz(func(t *testing.T, data []byte) {
		ra := NewReader(bytes.NewReader(data))
		rb := NewReader(bytes.NewReader(data))
		for frame := 0; ; frame++ {
			ta, pa, errA := ra.Next()
			tb, ws, pb, errB := rb.NextData()
			if (errA == nil) != (errB == nil) {
				t.Fatalf("frame %d: Next err=%v, NextData err=%v", frame, errA, errB)
			}
			if errA != nil {
				if frame == 0 && len(data) == 0 && errA != io.EOF {
					t.Fatalf("empty stream: err = %v, want io.EOF", errA)
				}
				return
			}
			if ta != tb {
				t.Fatalf("frame %d: Next type %v, NextData type %v", frame, ta, tb)
			}
			if ta < Open || ta > Doorbell || ta == 7 {
				t.Fatalf("frame %d: invalid type %d returned without error", frame, ta)
			}
			if ta == Doorbell && len(pa) != 0 {
				t.Fatalf("frame %d: doorbell returned with a %d-byte payload", frame, len(pa))
			}
			if len(pa) > MaxFrame {
				t.Fatalf("frame %d: payload %d exceeds MaxFrame", frame, len(pa))
			}
			if ta == Data {
				if len(pa)%WordBytes != 0 {
					t.Fatalf("frame %d: misaligned %d-byte data payload returned", frame, len(pa))
				}
				decoded, err := AppendWords(nil, pa)
				if err != nil {
					t.Fatalf("frame %d: aligned payload failed to decode: %v", frame, err)
				}
				if len(decoded) != len(ws) {
					t.Fatalf("frame %d: Words %d words, NextData %d", frame, len(decoded), len(ws))
				}
				for i := range decoded {
					if decoded[i] != ws[i] {
						t.Fatalf("frame %d word %d: Words %#x, NextData %#x", frame, i, decoded[i], ws[i])
					}
				}
			} else if !bytes.Equal(pa, pb) {
				t.Fatalf("frame %d: control payloads differ", frame)
			}
		}
	})
}

// FuzzOpen throws arbitrary payloads at the binary Open decoder, and at the
// OpenOK decoder that answers it, and checks: no panic; OpenTenant accepts
// exactly what DecodeOpen accepts and agrees on the tenant and the reuse
// flag; and every accepted payload, Open or OpenOK, is canonical — it
// re-encodes to the same bytes (and an Open decodes again to the same
// request). An accepted OpenOK offers a region only with a name and a ring
// size inside their bounds. The seeds are encoded requests covering every
// field and flag, a JSON Open from before the binary layout, truncations of
// a valid payload, and OpenOKs with and without a region offer.
func FuzzOpen(f *testing.F) {
	full, err := AppendOpen(nil, &OpenRequest{
		Tenant: "alice", Accel: "aes128", CSR: make([]byte, 16), Weight: 3,
		Quota: 1 << 40, QueueCap: 4096, Timing: true, Reuse: true, Shm: true,
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(full)
	for _, req := range []OpenRequest{{Tenant: "t", Accel: "sha256"}, {Weight: -1, QueueCap: -7}} {
		b, err := AppendOpen(nil, &req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte{})
	f.Add([]byte(`{"tenant":"t","accel":"sha256"}`))
	f.Add(full[:openFixed])
	f.Add(full[:len(full)-1])
	f.Add(append(append([]byte(nil), full...), 0))
	for _, rep := range []OpenReply{
		{Session: 7, InWords: 8, OutWords: 4},
		{Session: 1 << 40, InWords: 64, OutWords: 64, Region: "cohort-12-3-0badf00d", RingWords: 1 << 14},
	} {
		b, err := appendOpenReply(nil, rep)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		f.Add(b[:len(b)-1])
	}

	f.Fuzz(func(t *testing.T, p []byte) {
		if rep, err := DecodeOpenReply(p); err == nil {
			if rep.Region != "" && checkOffer(rep.Region, rep.RingWords) != nil {
				t.Fatalf("accepted an offer out of bounds: %+v", rep)
			}
			b, err := appendOpenReply(nil, rep)
			if err != nil || !bytes.Equal(b, p) {
				t.Fatalf("open-ok re-encode: %x %v, want %x", b, err, p)
			}
		}
		var req OpenRequest
		err := DecodeOpen(p, &req)
		tenant, reuse, terr := OpenTenant(p)
		if (err == nil) != (terr == nil) {
			t.Fatalf("DecodeOpen err=%v, OpenTenant err=%v", err, terr)
		}
		if err != nil {
			return
		}
		if tenant != req.Tenant || reuse != req.Reuse {
			t.Fatalf("OpenTenant %q reuse %v, DecodeOpen tenant %q reuse %v", tenant, reuse, req.Tenant, req.Reuse)
		}
		b, err := AppendOpen(nil, &req)
		if err != nil {
			t.Fatalf("accepted request %+v does not re-encode: %v", req, err)
		}
		if !bytes.Equal(b, p) {
			t.Fatalf("re-encode differs:\n got %x\nwant %x", b, p)
		}
		var again OpenRequest
		if err := DecodeOpen(b, &again); err != nil || !reflect.DeepEqual(again, req) {
			t.Fatalf("round trip: %+v (%v), want %+v", again, err, req)
		}
	})
}

// FuzzRedirect throws arbitrary payloads at the Redirect decoder and checks:
// no panic; a refused payload leaves dst as it was; and every accepted
// payload names 1 to maxRedirectAddrs non-empty addresses within
// maxAddrBytes and is canonical — it re-encodes to the same bytes.
func FuzzRedirect(f *testing.F) {
	for _, addrs := range [][]string{
		{"127.0.0.1:7411"},
		{"10.0.0.1:7411", "10.0.0.2:7411"},
		{"a:1", "b:2", "c:3", "d:4", "e:5", "f:6", "g:7", "h:8"},
	} {
		b, err := AppendRedirect(nil, addrs)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		f.Add(b[:len(b)-1])
		f.Add(append(b, 0))
	}
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add([]byte{9})
	f.Add([]byte{1, 0, 0})
	f.Add([]byte{1, 0xff, 0xff})

	f.Fuzz(func(t *testing.T, p []byte) {
		dst := []string{"kept"}
		got, err := DecodeRedirect(p, dst)
		if err != nil {
			if len(got) != 1 || got[0] != "kept" {
				t.Fatalf("refused payload left dst %q", got)
			}
			return
		}
		addrs := got[1:]
		if len(addrs) == 0 || len(addrs) > maxRedirectAddrs {
			t.Fatalf("accepted %d candidates", len(addrs))
		}
		for _, a := range addrs {
			if len(a) == 0 || len(a) > maxAddrBytes {
				t.Fatalf("accepted a %d-byte address", len(a))
			}
		}
		b, err := AppendRedirect(nil, addrs)
		if err != nil {
			t.Fatalf("accepted %q does not re-encode: %v", addrs, err)
		}
		if !bytes.Equal(b, p) {
			t.Fatalf("re-encode differs:\n got %x\nwant %x", b, p)
		}
	})
}
