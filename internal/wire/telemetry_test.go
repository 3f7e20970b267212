package wire

import (
	"bytes"
	"strings"
	"testing"
)

// TestTelemetryRoundTrip: the timing document survives encode → decode as
// DoneReply's optional attachment.
func TestTelemetryRoundTrip(t *testing.T) {
	tel := TelemetryReply{Session: 7, Stages: Stages{
		Queue:   StageTiming{Samples: 10, MeanNs: 1500, P50Ns: 1200, P99Ns: 4100},
		Sched:   StageTiming{Samples: 10, MeanNs: 300, P50Ns: 250, P99Ns: 900},
		Compute: StageTiming{Samples: 10, MeanNs: 7000, P50Ns: 6500, P99Ns: 12000},
		Wire:    StageTiming{Samples: 9, MeanNs: 2200, P50Ns: 1800, P99Ns: 5000},
	}}
	var buf bytes.Buffer
	if err := NewWriter(&buf).JSON(Done, DoneReply{Blocks: 3, Timing: &tel}); err != nil {
		t.Fatal(err)
	}

	typ, _, payload, err := NewReader(&buf).NextData()
	if err != nil || typ != Done {
		t.Fatalf("frame = %v %v, want done", typ, err)
	}
	var done DoneReply
	if err := Unmarshal(typ, payload, &done); err != nil {
		t.Fatal(err)
	}
	if done.Blocks != 3 || done.Timing == nil || *done.Timing != tel {
		t.Fatalf("done decoded as %+v (timing %+v)", done, done.Timing)
	}
	if want := 1500.0 + 300 + 7000 + 2200; done.Timing.ServerMeanNs() != want {
		t.Errorf("ServerMeanNs() = %g, want %g", done.Timing.ServerMeanNs(), want)
	}
}

// TestRetiredTypeRefused: a header of the retired type 7 is refused by Next
// and by NextData, as a type past the last (10) is, whatever its payload.
func TestRetiredTypeRefused(t *testing.T) {
	for _, ty := range []byte{7, 10} {
		for _, frame := range [][]byte{{ty, 0, 0, 0, 0}, {ty, 0, 0, 0, 2, '{', '}'}} {
			if _, _, err := NewReader(bytes.NewReader(frame)).Next(); err == nil ||
				!strings.Contains(err.Error(), "invalid frame type") {
				t.Errorf("Next(% x) err = %v, want an invalid frame type", frame, err)
			}
			if _, _, _, err := NewReader(bytes.NewReader(frame)).NextData(); err == nil ||
				!strings.Contains(err.Error(), "invalid frame type") {
				t.Errorf("NextData(% x) err = %v, want an invalid frame type", frame, err)
			}
		}
	}
}

// TestDoneReplyOmitsTimingWhenUnset: sessions that never opted in keep the
// pre-telemetry wire document byte-compatible — no "timing" key at all.
func TestDoneReplyOmitsTimingWhenUnset(t *testing.T) {
	var buf bytes.Buffer
	if err := NewWriter(&buf).JSON(Done, DoneReply{Blocks: 1}); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(buf.Bytes(), []byte("timing")) {
		t.Fatalf("DoneReply without timing leaks the field: %s", buf.String())
	}
}
