// Benchmarks, one per paper table/figure. Each testing.B target runs a
// representative point of the corresponding experiment and reports the
// paper's metric via b.ReportMetric; the full sweeps that regenerate every
// row/series are produced by `go run ./cmd/cohortbench`.
package cohort

import (
	"fmt"
	"testing"

	"cohort/internal/area"
	"cohort/internal/bench"
)

// benchPoint runs one simulated benchmark configuration per b.N iteration
// and reports simulated kilocycles and IPC.
func benchPoint(b *testing.B, cfg bench.RunConfig) {
	b.Helper()
	var last bench.Result
	for i := 0; i < b.N; i++ {
		r, err := bench.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(last.KiloCycles(), "simkcycles")
	b.ReportMetric(last.IPC, "simIPC")
}

// BenchmarkFig8SHALatency: Figure 8 — SHA program latency; sub-benchmarks
// cover the Cohort batch sweep and both baselines at a mid queue size.
func BenchmarkFig8SHALatency(b *testing.B) {
	const size = 1024
	for _, batch := range []int{8, 16, 32, 64} {
		b.Run(fmt.Sprintf("Cohort/batch=%d", batch), func(b *testing.B) {
			benchPoint(b, bench.RunConfig{Workload: bench.SHA, Mode: bench.Cohort, QueueSize: size, Batch: batch})
		})
	}
	b.Run("MMIO", func(b *testing.B) {
		benchPoint(b, bench.RunConfig{Workload: bench.SHA, Mode: bench.MMIO, QueueSize: size})
	})
	b.Run("DMA", func(b *testing.B) {
		benchPoint(b, bench.RunConfig{Workload: bench.SHA, Mode: bench.DMA, QueueSize: size})
	})
}

// BenchmarkFig9AESLatency: Figure 9 — AES program latency.
func BenchmarkFig9AESLatency(b *testing.B) {
	const size = 1024
	for _, batch := range []int{2, 8, 64} {
		b.Run(fmt.Sprintf("Cohort/batch=%d", batch), func(b *testing.B) {
			benchPoint(b, bench.RunConfig{Workload: bench.AES, Mode: bench.Cohort, QueueSize: size, Batch: batch})
		})
	}
	b.Run("MMIO", func(b *testing.B) {
		benchPoint(b, bench.RunConfig{Workload: bench.AES, Mode: bench.MMIO, QueueSize: size})
	})
	b.Run("DMA", func(b *testing.B) {
		benchPoint(b, bench.RunConfig{Workload: bench.AES, Mode: bench.DMA, QueueSize: size})
	})
}

// speedupBench reports the Cohort-over-baseline ratio for one Table 3 cell.
func speedupBench(b *testing.B, w bench.Workload, base bench.Mode, metric string) {
	b.Helper()
	const size = 1024
	var ratio float64
	for i := 0; i < b.N; i++ {
		c, err := bench.Run(bench.RunConfig{Workload: w, Mode: bench.Cohort, QueueSize: size, Batch: 64})
		if err != nil {
			b.Fatal(err)
		}
		m, err := bench.Run(bench.RunConfig{Workload: w, Mode: base, QueueSize: size})
		if err != nil {
			b.Fatal(err)
		}
		if metric == "latency" {
			ratio = float64(m.Cycles) / float64(c.Cycles)
		} else {
			ratio = c.IPC / m.IPC
		}
	}
	b.ReportMetric(ratio, "speedupX")
}

// BenchmarkTable3Speedups: Table 3 — peak Cohort speedups at batch=64.
func BenchmarkTable3Speedups(b *testing.B) {
	for _, w := range []bench.Workload{bench.SHA, bench.AES} {
		w := w
		b.Run(fmt.Sprintf("%v/vsMMIO", w), func(b *testing.B) { speedupBench(b, w, bench.MMIO, "latency") })
		b.Run(fmt.Sprintf("%v/vsDMA", w), func(b *testing.B) { speedupBench(b, w, bench.DMA, "latency") })
		b.Run(fmt.Sprintf("%v/withBatching", w), func(b *testing.B) {
			var ratio float64
			for i := 0; i < b.N; i++ {
				small, err := bench.Run(bench.RunConfig{Workload: w, Mode: bench.Cohort, QueueSize: 1024, Batch: 2})
				if err != nil {
					b.Fatal(err)
				}
				big, err := bench.Run(bench.RunConfig{Workload: w, Mode: bench.Cohort, QueueSize: 1024, Batch: 64})
				if err != nil {
					b.Fatal(err)
				}
				ratio = float64(small.Cycles) / float64(big.Cycles)
			}
			b.ReportMetric(ratio, "speedupX")
		})
	}
}

// BenchmarkFig10SHAIPC: Figure 10 — IPC speedup of Cohort over baselines
// while feeding SHA.
func BenchmarkFig10SHAIPC(b *testing.B) {
	b.Run("overMMIO", func(b *testing.B) { speedupBench(b, bench.SHA, bench.MMIO, "ipc") })
	b.Run("overDMA", func(b *testing.B) { speedupBench(b, bench.SHA, bench.DMA, "ipc") })
}

// BenchmarkFig11AESIPC: Figure 11 — same for AES.
func BenchmarkFig11AESIPC(b *testing.B) {
	b.Run("overMMIO", func(b *testing.B) { speedupBench(b, bench.AES, bench.MMIO, "ipc") })
	b.Run("overDMA", func(b *testing.B) { speedupBench(b, bench.AES, bench.DMA, "ipc") })
}

// BenchmarkTable4Area: Table 4 — the structural area model (fast; reported
// as engine LUTs so regressions in the model are visible).
func BenchmarkTable4Area(b *testing.B) {
	var luts int
	for i := 0; i < b.N; i++ {
		rows := area.Table4()
		luts = rows[2].Res.LUTs // empty Cohort engine
	}
	b.ReportMetric(float64(luts), "engineLUTs")
}

// --- Native runtime microbenchmarks ---------------------------------------

// BenchmarkFifoPushPop measures the native lock-free queue's single-thread
// round trip.
func BenchmarkFifoPushPop(b *testing.B) {
	q, _ := NewFifo[Word](1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q.Push(Word(i))
		if q.Pop() != Word(i) {
			b.Fatal("order")
		}
	}
}

// BenchmarkFifoConcurrent measures producer/consumer throughput across
// goroutines.
func BenchmarkFifoConcurrent(b *testing.B) {
	q, _ := NewFifo[Word](4096)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < b.N; i++ {
			q.Pop()
		}
	}()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Push(Word(i))
	}
	<-done
}

// BenchmarkFifoBatchSweep is the native-runtime analogue of the Fig. 8/9
// batch sweeps: the same contiguous run moves through the queue either
// element-at-a-time (PushAll/PopN, one index publication per word) or as a
// slice (PushSlice/PopSlice, ONE publication per run). Throughput must rise
// monotonically with batch size on the slice path, and the slice path must
// beat the per-element path decisively at large batches — the §4.1 batched
// index update reproduced in software.
func BenchmarkFifoBatchSweep(b *testing.B) {
	for _, batch := range []int{1, 2, 4, 8, 16, 32, 64, 128, 256} {
		block := make([]Word, batch)
		for i := range block {
			block[i] = Word(i)
		}
		b.Run(fmt.Sprintf("element/batch=%d", batch), func(b *testing.B) {
			q, _ := NewFifo[Word](1024)
			b.SetBytes(int64(8 * batch))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				q.PushAll(block)
				q.PopN(batch)
			}
		})
		b.Run(fmt.Sprintf("slice/batch=%d", batch), func(b *testing.B) {
			q, _ := NewFifo[Word](1024)
			out := make([]Word, batch)
			b.SetBytes(int64(8 * batch))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				q.PushSlice(block)
				q.PopSlice(out)
			}
		})
	}
}

// BenchmarkEngineBatchSweep sweeps the engine's drain batch (WithBatch)
// while streaming words through the null accelerator: the engine-side
// mirror of the Fig. 8/9 shape — throughput rises with batch size as queue
// synchronization amortizes over more words per wakeup.
func BenchmarkEngineBatchSweep(b *testing.B) {
	const chunk = 1024
	for _, batch := range []int{1, 2, 4, 8, 16, 32, 64} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			in, _ := NewFifo[Word](4096)
			out, _ := NewFifo[Word](4096)
			e, err := Register(NewNull(), in, out, WithBatch(batch))
			if err != nil {
				b.Fatal(err)
			}
			defer e.Unregister()
			data := make([]Word, chunk)
			res := make([]Word, chunk)
			b.SetBytes(8 * chunk)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				in.PushSlice(data)
				out.PopSlice(res)
			}
		})
	}
}

// pair is a 2-word pass-through with an owned result buffer: AES-128's block
// geometry with the compute taken out, so an engine sweep over it measures
// the datapath around Process and nothing else.
type pair struct{ out [2]Word }

func (*pair) Name() string           { return "pair" }
func (*pair) InWords() int           { return 2 }
func (*pair) OutWords() int          { return 2 }
func (*pair) Configure([]byte) error { return nil }
func (p *pair) Process(in []Word) ([]Word, error) {
	p.out[0], p.out[1] = in[0], in[1]
	return p.out[:], nil
}

// BenchmarkEnginePublishSweep is BenchmarkEngineBatchSweep's produce-side
// twin over 2-word blocks: at batch=1 the engine publishes its output index
// once per block, at batch=N once per N blocks, so the ns/block column is the
// cost of a publication amortized over the batch (§4.1, Fig. 8/9).
func BenchmarkEnginePublishSweep(b *testing.B) {
	const chunk = 1024 // words per push: 512 blocks
	for _, batch := range []int{1, 4, 16, 64} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			in, _ := NewFifo[Word](4096)
			out, _ := NewFifo[Word](4096)
			e, err := Register(&pair{}, in, out, WithBatch(batch))
			if err != nil {
				b.Fatal(err)
			}
			defer e.Unregister()
			data := make([]Word, chunk)
			res := make([]Word, chunk)
			b.SetBytes(8 * chunk)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				in.PushSlice(data)
				out.PopSlice(res)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*chunk/2), "ns/block")
		})
	}
}

// accelSink keeps BenchmarkAccelProcess's result live.
var accelSink []Word

// BenchmarkAccelProcess times one Process call on the paper's two
// accelerators, outside any engine: ns/op is ns per block, and allocs/op must
// read 0 (TestBuiltinAcceleratorsZeroAlloc is the gate; this is the number).
func BenchmarkAccelProcess(b *testing.B) {
	for _, acc := range []Accelerator{NewSHA256(), NewAES128()} {
		b.Run(acc.Name(), func(b *testing.B) {
			in := make([]Word, acc.InWords())
			for i := range in {
				in[i] = Word(i+1) * 2654435761
			}
			b.SetBytes(int64(8 * len(in)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				in[0] = Word(i)
				res, err := acc.Process(in)
				if err != nil {
					b.Fatal(err)
				}
				accelSink = res
			}
		})
	}
}

// BenchmarkSHA256Engine measures the native SHA engine end to end.
func BenchmarkSHA256Engine(b *testing.B) {
	in, _ := NewFifo[Word](512)
	out, _ := NewFifo[Word](512)
	e, err := Register(NewSHA256(), in, out)
	if err != nil {
		b.Fatal(err)
	}
	defer e.Unregister()
	block := make([]Word, 8)
	digest := make([]Word, 4)
	b.SetBytes(64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		block[0] = Word(i)
		in.PushSlice(block)
		out.PopSlice(digest)
	}
}

// BenchmarkAES128Engine measures the native AES engine end to end.
func BenchmarkAES128Engine(b *testing.B) {
	in, _ := NewFifo[Word](512)
	out, _ := NewFifo[Word](512)
	e, err := Register(NewAES128(), in, out, WithCSR([]byte("0123456789abcdef")))
	if err != nil {
		b.Fatal(err)
	}
	defer e.Unregister()
	block := make([]Word, 2)
	ct := make([]Word, 2)
	b.SetBytes(16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		block[0], block[1] = Word(i), Word(i)^0xffff
		in.PushSlice(block)
		out.PopSlice(ct)
	}
}

// BenchmarkChainAESSHA measures the Figure 5 two-stage native chain.
func BenchmarkChainAESSHA(b *testing.B) {
	in, _ := NewFifo[Word](512)
	out, _ := NewFifo[Word](512)
	engines, err := Chain(in, out, 256, NewAES128(), NewSHA256())
	if err != nil {
		b.Fatal(err)
	}
	defer func() {
		for _, e := range engines {
			e.Unregister()
		}
	}()
	block := make([]Word, 8)
	digest := make([]Word, 4)
	b.SetBytes(64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		block[0] = Word(i)
		in.PushSlice(block)
		out.PopSlice(digest)
	}
}
