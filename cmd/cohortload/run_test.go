package main

import (
	"testing"
	"time"
)

// TestOneRunSpawned drives the whole load-generator path for a short window:
// an in-process daemon, concurrent tenant sessions, the open-loop sender and
// receiver, and the server-stage telemetry the clients opt into.
func TestOneRunSpawned(t *testing.T) {
	cfg := runConfig{accel: "echo", tenants: 2, duration: 200 * time.Millisecond}
	r, err := oneRun(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Blocks == 0 {
		t.Fatal("no blocks served")
	}
	if r.Words != r.Blocks*block {
		t.Errorf("words = %d, want blocks*block = %d", r.Words, r.Blocks*block)
	}
	st := r.ServerStages
	if st == nil {
		t.Fatal("no server stage breakdown")
	}
	if st.Compute.Samples == 0 {
		t.Errorf("compute stage has no samples: %+v", st)
	}
}
