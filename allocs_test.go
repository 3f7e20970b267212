package cohort

import (
	"testing"
)

// echoAcc is an 8-word pass-through accelerator whose result slice reuses a
// fixed backing array: the minimal accelerator that honours the owned-buffer
// contract, so a guard over it measures the engine alone.
type echoAcc struct {
	out [8]Word
}

func (e *echoAcc) Name() string               { return "echo" }
func (e *echoAcc) InWords() int               { return 8 }
func (e *echoAcc) OutWords() int              { return 8 }
func (e *echoAcc) Configure(csr []byte) error { return nil }
func (e *echoAcc) Process(in []Word) ([]Word, error) {
	copy(e.out[:], in)
	return e.out[:], nil
}

// TestBuiltinAcceleratorsZeroAlloc pins the owned-buffer contract on the
// streaming built-ins: after warm-up, Process writes into the buffer its
// constructor allocated and returns it, so a block costs no heap allocation.
func TestBuiltinAcceleratorsZeroAlloc(t *testing.T) {
	for _, acc := range []Accelerator{NewSHA256(), NewAES128(), NewAES128Decrypt(), NewNull()} {
		in := make([]Word, acc.InWords())
		for i := range in {
			in[i] = Word(i+1) * 2654435761
		}
		step := func() {
			if _, err := acc.Process(in); err != nil {
				t.Fatal(err)
			}
		}
		step()
		if avg := testing.AllocsPerRun(256, step); avg != 0 {
			t.Errorf("%s: Process allocates %.2f times per block, want 0", acc.Name(), avg)
		}
	}
}

// TestEngineSteadyStateAllocs pins the zero-allocation property of the
// engine hot path: with registry polling off, a warmed engine moving blocks
// end to end — the producer's PushSlice, the engine's drain/compute/publish
// loop (including the 1-in-128 sampled drain timing), and the consumer's
// PopSlice — performs no heap allocations at all, over the echo stub (the
// engine alone), over the shipped SHA-256 accelerator, and over the echo stub
// with an always-on flight recorder attached, both with a ring that wraps
// many times (16 events per track) and with one that barely does (4096).
// A momentarily idle engine parks on its bell, which allocates nothing either.
func TestEngineSteadyStateAllocs(t *testing.T) {
	cases := []struct {
		name   string
		acc    Accelerator
		flight int // events per track; 0 registers without a recorder
	}{
		{"echo", &echoAcc{}, 0},
		{"sha256", NewSHA256(), 0},
		{"echo+flight16", &echoAcc{}, 16},
		{"echo+flight4096", &echoAcc{}, 4096},
	}
	for _, c := range cases {
		acc := c.acc
		t.Run(c.name, func(t *testing.T) {
			in, err := NewFifo[Word](1024)
			if err != nil {
				t.Fatal(err)
			}
			out, err := NewFifo[Word](1024)
			if err != nil {
				t.Fatal(err)
			}
			var opts []RegisterOption
			if c.flight > 0 {
				opts = append(opts, WithFlightRecorder(NewFlightRecorder(c.flight), "echo"))
			}
			e, err := Register(acc, in, out, opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer e.Unregister()

			block := make([]Word, acc.InWords())
			res := make([]Word, acc.OutWords())
			step := func() {
				in.PushSlice(block)
				out.PopSlice(res)
			}
			// Warm up past one-time costs (engine buffer, goroutine growth)
			// and well past a full histogram sampling period so the measured
			// runs cross the timed drain too.
			for i := 0; i < 512; i++ {
				step()
			}

			if avg := testing.AllocsPerRun(512, step); avg != 0 {
				t.Errorf("steady-state engine loop allocates: %.2f allocs/run, want 0", avg)
			}
		})
	}
}
