package wire

import (
	"bytes"
	"testing"
)

// TestTelemetryRoundTrip: the Telemetry frame type is valid on the wire, its
// JSON document survives encode → decode, and DoneReply carries the optional
// timing attachment.
func TestTelemetryRoundTrip(t *testing.T) {
	if got := Telemetry.String(); got != "telemetry" {
		t.Errorf("Telemetry.String() = %q", got)
	}

	tel := TelemetryReply{Session: 7, Stages: Stages{
		Queue:   StageTiming{Samples: 10, MeanNs: 1500, P50Ns: 1200, P99Ns: 4100},
		Sched:   StageTiming{Samples: 10, MeanNs: 300, P50Ns: 250, P99Ns: 900},
		Compute: StageTiming{Samples: 10, MeanNs: 7000, P50Ns: 6500, P99Ns: 12000},
		Wire:    StageTiming{Samples: 9, MeanNs: 2200, P50Ns: 1800, P99Ns: 5000},
	}}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.JSON(Telemetry, tel); err != nil {
		t.Fatal(err)
	}
	if err := w.JSON(Done, DoneReply{Blocks: 3, Timing: &tel}); err != nil {
		t.Fatal(err)
	}

	r := NewReader(&buf)
	typ, ws, payload, err := r.NextData()
	if err != nil || typ != Telemetry || ws != nil {
		t.Fatalf("frame 1 = %v (words %v) %v, want telemetry control frame", typ, ws, err)
	}
	var got TelemetryReply
	if err := Unmarshal(typ, payload, &got); err != nil {
		t.Fatal(err)
	}
	if got != tel {
		t.Fatalf("telemetry decoded as %+v, want %+v", got, tel)
	}
	if want := 1500.0 + 300 + 7000 + 2200; got.ServerMeanNs() != want {
		t.Errorf("ServerMeanNs() = %g, want %g", got.ServerMeanNs(), want)
	}

	typ, _, payload, err = r.NextData()
	if err != nil || typ != Done {
		t.Fatalf("frame 2 = %v %v, want done", typ, err)
	}
	var done DoneReply
	if err := Unmarshal(typ, payload, &done); err != nil {
		t.Fatal(err)
	}
	if done.Blocks != 3 || done.Timing == nil || *done.Timing != tel {
		t.Fatalf("done decoded as %+v (timing %+v)", done, done.Timing)
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
