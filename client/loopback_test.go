package client_test

import (
	"io"
	"net"
	"testing"
	"time"

	"cohort"
	"cohort/client"
	"cohort/internal/sched"
	"cohort/internal/telem"
)

// echoAcc is a block pass-through whose result slice reuses a fixed backing
// array, so Process itself is allocation-free (the serving twin of the one
// in the root package's allocs_test.go).
type echoAcc struct{ out []cohort.Word }

func newEcho(block int) *echoAcc { return &echoAcc{out: make([]cohort.Word, block)} }

func (e *echoAcc) Name() string               { return "echo" }
func (e *echoAcc) InWords() int               { return len(e.out) }
func (e *echoAcc) OutWords() int              { return len(e.out) }
func (e *echoAcc) Configure(csr []byte) error { return nil }
func (e *echoAcc) Process(in []cohort.Word) ([]cohort.Word, error) {
	copy(e.out, in)
	return e.out, nil
}

// startLoopback brings up a real scheduler and TCP server on 127.0.0.1 with
// an "echo" catalog entry of the given block size beside the real "sha256". A
// non-nil registry wires the scheduler's metric sources, as cohortd does.
func startLoopback(tb testing.TB, block int, reg *cohort.Registry) (addr string, s *sched.Scheduler, stop func()) {
	tb.Helper()
	s = sched.New(sched.Config{Engines: 1, Quantum: 64, QueueCap: 16384, Registry: reg})
	catalog := sched.Catalog{
		"echo":   func() (cohort.Accelerator, error) { return newEcho(block), nil },
		"sha256": func() (cohort.Accelerator, error) { return cohort.NewSHA256(), nil },
	}
	sv := sched.NewServer(s, catalog)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	go sv.Serve(ln) //nolint:errcheck // returns ErrServerClosed on stop
	return ln.Addr().String(), s, func() {
		sv.Close()
		s.Close()
	}
}

// TestServeSteadyStateAllocs pins the serving twin of the root package's
// zero-allocation guard: a warmed send→sched→recv round trip over a real
// TCP loopback connection — client zero-copy Send, server pooled decode and
// whole-frame queue push, one scheduler quantum, coalesced writev result
// pump, client RecvInto — performs no heap allocations at all, on either
// end (AllocsPerRun measures the whole process, so the server's goroutines
// are inside the guard too). It runs over the reused-buffer echo stub and
// over the shipped SHA-256 accelerator, whose Process is inside the guard.
func TestServeSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector; zero-alloc steady state holds only in normal builds")
	}
	const block = 64
	for _, tc := range []struct {
		accel    string
		outWords int // per 64 words sent
	}{{"echo", block}, {"sha256", block / 2}} {
		t.Run(tc.accel, func(t *testing.T) {
			// Run the guard under production observability: the scheduler
			// publishes its sources into a registry and the windowed telemetry
			// sampler reads its records concurrently. The sampler's own per-tick
			// allocations happen on its goroutine a handful of times during the
			// measurement — far fewer than the run count — so the per-run
			// average still pins the serving hot path itself at zero.
			reg := cohort.NewRegistry()
			addr, s, stop := startLoopback(t, block, reg)
			defer stop()
			sampler := telem.New(telem.Config{Source: s.Totals, Tick: 100 * time.Millisecond})
			sampler.Start()
			defer sampler.Stop()

			c, err := client.Connect(addr, client.Options{Tenant: "allocs", Accel: tc.accel})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()

			in := make([]cohort.Word, block)
			for i := range in {
				in[i] = cohort.Word(i) * 2654435761
			}
			res := make([]cohort.Word, tc.outWords)
			step := func() {
				if err := c.Send(in); err != nil {
					t.Fatal(err)
				}
				for got := 0; got < len(res); {
					n, err := c.RecvInto(res[got:])
					if err != nil {
						t.Fatal(err)
					}
					got += n
				}
			}
			// Warm past one-time costs: connection buffers, pool seeding,
			// goroutine stack growth, the kernel's cached iovec array for writev.
			for i := 0; i < 256; i++ {
				step()
			}
			if avg := testing.AllocsPerRun(256, step); avg != 0 {
				t.Errorf("steady-state serving round trip allocates: %.2f allocs/run, want 0", avg)
			}
		})
	}
}

// TestRecvIntoCarry: a Data frame larger than the RecvInto buffer carries
// over across calls, in order, with no words lost.
func TestRecvIntoCarry(t *testing.T) {
	const block = 8
	addr, _, stop := startLoopback(t, block, nil)
	defer stop()
	c, err := client.Connect(addr, client.Options{Tenant: "carry", Accel: "echo"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const blocks = 64
	in := make([]cohort.Word, blocks*block)
	for i := range in {
		in[i] = cohort.Word(i) + 1
	}
	if err := c.Send(in); err != nil { // 64 blocks in one coalesced frame
		t.Fatal(err)
	}
	if err := c.CloseSend(); err != nil {
		t.Fatal(err)
	}
	var out []cohort.Word
	tiny := make([]cohort.Word, 3) // deliberately smaller than any frame
	for {
		n, err := c.RecvInto(tiny)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, tiny[:n]...)
	}
	if len(out) != len(in) {
		t.Fatalf("received %d words, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i] != in[i] {
			t.Fatalf("word %d = %d, want %d", i, out[i], in[i])
		}
	}
	if res := c.Result(); res == nil || res.Blocks != blocks {
		t.Fatalf("result %+v, want %d blocks", res, blocks)
	}
}

// TestStreamRoundTrip: Stream sends a whole job, closes the outbound side
// and collects every result word up to Done.
func TestStreamRoundTrip(t *testing.T) {
	const block = 16
	addr, _, stop := startLoopback(t, block, nil)
	defer stop()
	c, err := client.Connect(addr, client.Options{Tenant: "stream", Accel: "echo"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	in := make([]cohort.Word, 4*block)
	for i := range in {
		in[i] = ^cohort.Word(i)
	}
	out, res, err := c.Stream(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("got %d words, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i] != in[i] {
			t.Fatalf("word %d mismatch", i)
		}
	}
	if res.Blocks != 4 {
		t.Fatalf("blocks = %d, want 4", res.Blocks)
	}
}

// benchLoopback streams b.N blocks through a real TCP session, sending
// sendBatch words per frame. CI logs these next to the wire microbenches.
func benchLoopback(b *testing.B, block, sendBatch int) {
	addr, _, stop := startLoopback(b, block, nil)
	defer stop()
	c, err := client.Connect(addr, client.Options{Tenant: "bench", Accel: "echo"})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()

	total := b.N * block
	in := make([]cohort.Word, sendBatch)
	res := make([]cohort.Word, 65536)
	b.SetBytes(int64(block * 8))
	b.ResetTimer()
	go func() {
		for sent := 0; sent < total; {
			n := sendBatch
			if rem := total - sent; n > rem {
				n = rem
			}
			if err := c.Send(in[:n]); err != nil {
				return
			}
			sent += n
		}
		c.CloseSend() //nolint:errcheck // receiver surfaces stream errors
	}()
	for got := 0; got < total; {
		n, err := c.RecvInto(res)
		if err != nil {
			b.Fatal(err)
		}
		got += n
	}
}

func BenchmarkLoopbackBlock64Batched(b *testing.B)   { benchLoopback(b, 64, 4096) }
func BenchmarkLoopbackBlock64ZeroCopy(b *testing.B)  { benchLoopback(b, 64, 64) }
func BenchmarkLoopbackBlock4096Batched(b *testing.B) { benchLoopback(b, 4096, 4096) }
