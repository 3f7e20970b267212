package sched

import (
	"bytes"
	"io"
	"net"
	"runtime"
	"slices"
	"testing"

	"cohort"
	"cohort/internal/wire"
)

// writeRecorder is a connection that is not a socket, so the wire Writer
// hands it each flush as one Write; it records every Write.
type writeRecorder struct {
	net.Conn
	writes [][]byte
}

func (w *writeRecorder) Write(p []byte) (int, error) {
	w.writes = append(w.writes, bytes.Clone(p))
	return len(p), nil
}

func (w *writeRecorder) Close() error { return nil }

// TestFinalDataAndDoneShareOneWrite: when a session's last quantum leaves
// its results in the output queue as the session retires, the result pump
// sends those results and the Done in one write — with and without
// timing — and keeps the connection. A killed session's results go out
// before its Error, which closes the connection. Results deeper than one
// frame go out in whole frames first, and the last frame's worth shares
// the Done's write.
func TestFinalDataAndDoneShareOneWrite(t *testing.T) {
	for _, tc := range []struct {
		name          string
		words         int
		timing        bool
		kill          bool
		writes, datas int
		final         wire.Type
	}{
		{"done", 16, false, false, 1, 1, wire.Done},
		{"done-timing", 16, true, false, 1, 1, wire.Done},
		{"killed", 16, false, true, 2, 1, wire.Error},
		{"deeper-than-a-frame", wire.MaxFrameWords + 16, false, false, 2, 2, wire.Done},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := New(Config{Engines: 1, Quantum: 64, QueueCap: max(64, tc.words)})
			defer s.Close()
			ss, err := s.Register(SessionConfig{Tenant: "t", Accel: cohort.NewNull()})
			if err != nil {
				t.Fatal(err)
			}
			in := make([]cohort.Word, tc.words)
			for i := range in {
				in[i] = cohort.Word(i) * 2654435761
			}
			ss.In().PushSlice(in)
			if tc.kill {
				for ss.Out().Len() < len(in) {
					select {
					case <-ss.Done():
						t.Fatal("session retired before its results were out")
					default:
						runtime.Gosched()
					}
				}
				ss.Kill()
			} else {
				ss.CloseSend()
			}
			<-ss.Done() // retired: Out is closed and holds every result word

			conn := &writeRecorder{}
			sv := NewServer(s, nil)
			if kept := sv.pumpResults(wire.NewConn(conn), ss, tc.timing, true); kept != !tc.kill {
				t.Fatalf("pumpResults kept the connection: %v, want %v", kept, !tc.kill)
			}
			if len(conn.writes) != tc.writes {
				t.Fatalf("%d writes, want %d", len(conn.writes), tc.writes)
			}
			fr := wire.NewReader(bytes.NewReader(bytes.Join(conn.writes, nil)))
			var got []cohort.Word
			datas := 0
			typ, ws, p, err := fr.NextData()
			for ; err == nil && typ == wire.Data; typ, ws, p, err = fr.NextData() {
				got = append(got, ws...)
				datas++
			}
			if datas != tc.datas || !slices.Equal(got, in) {
				t.Fatalf("%d Data frames carried %d words, want %d frames carrying the %d result words in order",
					datas, len(got), tc.datas, len(in))
			}
			if err != nil || typ != tc.final {
				t.Fatalf("final frame = %v %v, want %v", typ, err, tc.final)
			}
			if typ == wire.Done {
				var done wire.DoneReply
				if err := wire.Unmarshal(typ, p, &done); err != nil || done.Blocks != uint64(tc.words) || done.Code != "" {
					t.Fatalf("done %+v %v, want %d clean blocks", done, err, tc.words)
				}
				if (done.Timing != nil) != tc.timing {
					t.Fatalf("done timing %+v with timing=%v", done.Timing, tc.timing)
				}
			}
			if _, _, _, err := fr.NextData(); err != io.EOF {
				t.Fatalf("frames past the final one: %v", err)
			}
		})
	}
}
