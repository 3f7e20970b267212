package bench

import (
	"encoding/binary"
	"encoding/hex"
	"slices"
	"strings"
	"testing"
)

func run(t *testing.T, cfg RunConfig) Result {
	t.Helper()
	cfg.Verify = true
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Verified {
		t.Fatalf("%v/%v unverified", cfg.Workload, cfg.Mode)
	}
	return r
}

func TestTable2Defaults(t *testing.T) {
	p := DefaultParams()
	if p.MinQueue != 64 || p.MaxQueue != 8192 || p.MinBatch != 2 || p.MaxBatch != 64 || p.DMAGranularity != 256 {
		t.Fatalf("params %+v do not match Table 2", p)
	}
	sizes := p.QueueSizes()
	if len(sizes) != 8 || sizes[0] != 64 || sizes[7] != 8192 {
		t.Fatalf("queue sizes %v", sizes)
	}
}

func TestAllModesProduceVerifiedResults(t *testing.T) {
	for _, w := range []Workload{SHA, AES} {
		for _, m := range []Mode{Cohort, MMIO, DMA} {
			r := run(t, RunConfig{Workload: w, Mode: m, QueueSize: 128, Batch: 64})
			if r.Cycles == 0 || r.Instructions == 0 || r.IPC <= 0 {
				t.Errorf("%v/%v: degenerate result %+v", w, m, r)
			}
		}
	}
}

func TestHeadlineOrderingHolds(t *testing.T) {
	// The paper's core claims at a small size: Cohort (batch 64) beats both
	// baselines on latency for both workloads, and SHA gains much more than
	// AES.
	for _, w := range []Workload{SHA, AES} {
		c := run(t, RunConfig{Workload: w, Mode: Cohort, QueueSize: 256, Batch: 64})
		m := run(t, RunConfig{Workload: w, Mode: MMIO, QueueSize: 256})
		d := run(t, RunConfig{Workload: w, Mode: DMA, QueueSize: 256})
		if c.Cycles >= m.Cycles {
			t.Errorf("%v: Cohort (%d) not faster than MMIO (%d)", w, c.Cycles, m.Cycles)
		}
		if c.Cycles >= d.Cycles {
			t.Errorf("%v: Cohort (%d) not faster than DMA (%d)", w, c.Cycles, d.Cycles)
		}
		if c.IPC <= m.IPC {
			t.Errorf("%v: Cohort IPC (%f) not above MMIO IPC (%f)", w, c.IPC, m.IPC)
		}
	}
	shaGain := float64(run(t, RunConfig{Workload: SHA, Mode: MMIO, QueueSize: 256}).Cycles) /
		float64(run(t, RunConfig{Workload: SHA, Mode: Cohort, QueueSize: 256, Batch: 64}).Cycles)
	aesGain := float64(run(t, RunConfig{Workload: AES, Mode: MMIO, QueueSize: 256}).Cycles) /
		float64(run(t, RunConfig{Workload: AES, Mode: Cohort, QueueSize: 256, Batch: 64}).Cycles)
	if shaGain <= aesGain {
		t.Errorf("SHA speedup (%.2f) should exceed AES speedup (%.2f) — §6.1", shaGain, aesGain)
	}
}

func TestDMAWorseThanMMIOForSHAOnly(t *testing.T) {
	// §6.1 / Table 3: fine-grained DMA is the worst option for SHA, while
	// for AES it is roughly on par with MMIO (the 256 B granularity
	// amortises over 4x more AES blocks).
	shaM := run(t, RunConfig{Workload: SHA, Mode: MMIO, QueueSize: 256})
	shaD := run(t, RunConfig{Workload: SHA, Mode: DMA, QueueSize: 256})
	if shaD.Cycles <= shaM.Cycles {
		t.Errorf("SHA: DMA (%d) should be slower than MMIO (%d)", shaD.Cycles, shaM.Cycles)
	}
	aesM := run(t, RunConfig{Workload: AES, Mode: MMIO, QueueSize: 256})
	aesD := run(t, RunConfig{Workload: AES, Mode: DMA, QueueSize: 256})
	ratio := float64(aesD.Cycles) / float64(aesM.Cycles)
	if ratio > 1.6 {
		t.Errorf("AES: DMA/MMIO = %.2f, should be near parity", ratio)
	}
}

func TestBatchingMonotonicallyHelps(t *testing.T) {
	for _, w := range []Workload{SHA, AES} {
		prev := uint64(0)
		s := NewSuite(DefaultParams(), true)
		for _, b := range s.BatchFactors(w) {
			r := run(t, RunConfig{Workload: w, Mode: Cohort, QueueSize: 256, Batch: b})
			if prev != 0 && r.Cycles > prev+prev/10 {
				t.Errorf("%v: batch %d (%d cycles) much slower than previous batch (%d)", w, b, r.Cycles, prev)
			}
			prev = r.Cycles
		}
	}
}

func TestDeterministicResults(t *testing.T) {
	cfg := RunConfig{Workload: AES, Mode: Cohort, QueueSize: 128, Batch: 16, Verify: true}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("nondeterministic: %+v vs %+v", a, b)
	}
}

func TestSuiteFiguresAndTable(t *testing.T) {
	p := DefaultParams()
	p.MinQueue, p.MaxQueue = 64, 256 // keep the unit test quick
	s := NewSuite(p, true)
	for _, w := range []Workload{SHA, AES} {
		fig, err := s.LatencyFigure(w)
		if err != nil {
			t.Fatal(err)
		}
		wantSeries := len(s.BatchFactors(w)) + 2
		if len(fig.Series) != wantSeries {
			t.Fatalf("%v latency figure has %d series, want %d", w, len(fig.Series), wantSeries)
		}
		for _, ser := range fig.Series {
			if len(ser.Values) != 3 {
				t.Fatalf("series %s has %d points", ser.Name, len(ser.Values))
			}
			// Latency grows with queue size for every series.
			if ser.Values[2] <= ser.Values[0] {
				t.Errorf("%s: latency not increasing with size: %v", ser.Name, ser.Values)
			}
		}
		txt := fig.Format()
		if !strings.Contains(txt, "MMIO") || !strings.Contains(txt, "Cohort batch=") {
			t.Error("figure text missing series labels")
		}

		ipc, err := s.IPCFigure(w)
		if err != nil {
			t.Fatal(err)
		}
		for _, ser := range ipc.Series {
			for _, v := range ser.Values {
				if v <= 1 {
					t.Errorf("%v %s: IPC speedup %.2f <= 1", w, ser.Name, v)
				}
			}
		}

		rows, err := s.SpeedupTable(w)
		if err != nil {
			t.Fatal(err)
		}
		for i := range rows.Sizes {
			if rows.VsMMIO[i] <= 1 || rows.VsDMA[i] <= 1 || rows.WithBatching[i] <= 1 {
				t.Errorf("%v size %d: speedups not all > 1: %v %v %v",
					w, rows.Sizes[i], rows.VsMMIO[i], rows.VsDMA[i], rows.WithBatching[i])
			}
		}
		if !strings.Contains(rows.Format(), "Vs MMIO") {
			t.Error("table text missing rows")
		}
	}
}

func TestRangeHelper(t *testing.T) {
	lo, hi := Range([]float64{3, 1, 2})
	if lo != 1 || hi != 3 {
		t.Fatalf("Range = %v,%v", lo, hi)
	}
}

// TestReferenceKnownAnswers pins the software reference that verifies every
// simulated run to answers taken outside Go, since it hashes with the same
// crypto/sha256 the SHA device runs. Words carry bytes little-endian.
//
//	printf '%s' 'ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/' | sha256sum
//	printf '%s' 'ABCDEFGHIJKLMNOP' | openssl enc -aes-128-ecb -K 00000000000000000000000000000000 -nopad | xxd -p
func TestReferenceKnownAnswers(t *testing.T) {
	for _, c := range []struct {
		w        Workload
		msg, out string
	}{
		{SHA, "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/",
			"7543b37fa53fde2c84f07fd39f368555966aa1c0eb2f2fd26b294d79966e290e"},
		{AES, "ABCDEFGHIJKLMNOP", "61d78258eb1abd6fff479d1dabb6103b"},
	} {
		out, err := hex.DecodeString(c.out)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := reference(c.w, leWords([]byte(c.msg))), leWords(out); !slices.Equal(got, want) {
			t.Errorf("%v reference(%q) = %#x, want %#x", c.w, c.msg, got, want)
		}
	}
}

// leWords packs b (a multiple of 8 bytes long) into little-endian words.
func leWords(b []byte) []uint64 {
	w := make([]uint64, len(b)/8)
	for i := range w {
		w[i] = binary.LittleEndian.Uint64(b[8*i:])
	}
	return w
}
