//go:build linux

package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net"
	"runtime"
	"sync/atomic"
	"time"

	"cohort"
	"cohort/client"
	"cohort/internal/sched"
	"cohort/internal/wire"
)

// The common part of a traced run: the host's calibration, the layer ladder,
// and timed loops over single layers. None of it depends on the workload.

const (
	ladderBlock = 64  // words per block, the echo64 block
	ladderPush  = 512 // words per push or Send
)

// ladder measures everything workload-independent into m, spending about
// budget in all, and returns one span per step: per-call spans here would
// measure the clock, not the queue.
func ladder(m map[string]float64, budget time.Duration, seed int64) (traceSet, error) {
	tr := newTracer()
	if err := ladderSteps(m, budget/16, seed, tr); err != nil {
		return traceSet{}, fmt.Errorf("ladder: %w", err)
	}
	return tr.set("ladder"), nil
}

func ladderSteps(m map[string]float64, step time.Duration, seed int64, tr *tracer) error {
	timed := func(name string, f func() error) error {
		t0 := time.Now()
		err := f()
		tr.add(name, 0, -1, t0, time.Now())
		return err
	}
	timed("host", func() error { hostCalibration(m, step); return nil })

	rng := rand.New(rand.NewSource(seed))
	payload := randWords(rng, ladderPush)
	var nsPerBlock [5]float64
	rung := func(i int, layer string, blocks float64, elapsed time.Duration) {
		nsPerBlock[i] = float64(elapsed) / blocks
		m[layer+".mib_s"] = blocks * ladderBlock * 8 / mib / elapsed.Seconds()
		if i == 0 {
			m[layer+".ns_per_block"] = nsPerBlock[0]
		} else {
			m[layer+".self_ns_per_block"] = nsPerBlock[i] - nsPerBlock[i-1]
		}
	}
	if err := timed("ladder.fifo", func() error {
		q, err := cohort.NewFifo[cohort.Word](streamShape.QueueCap)
		if err != nil {
			return err
		}
		b, e := pump(q, q, q.Close, payload, 2*step)
		rung(0, "fifo", b, e)
		return nil
	}); err != nil {
		return err
	}
	if err := timed("ladder.engine", func() error {
		in, out, err := fifoPair()
		if err != nil {
			return err
		}
		e, err := cohort.Register(&echo64{}, in, out)
		if err != nil {
			return err
		}
		b, el := pump(in, out, in.Close, payload, 2*step)
		e.Unregister()
		rung(1, "engine", b, el)
		return nil
	}); err != nil {
		return err
	}
	if err := timed("ladder.sched", func() error {
		in, out, err := fifoPair()
		if err != nil {
			return err
		}
		sch := sched.New(sched.Config{Engines: 1, Quantum: streamShape.Quantum})
		defer sch.Close()
		ss, err := sch.Register(sched.SessionConfig{Tenant: "ladder", Accel: &echo64{}, In: in, Out: out})
		if err != nil {
			return err
		}
		b, el := pump(in, out, ss.CloseSend, payload, 2*step)
		rung(2, "sched", b, el)
		return nil
	}); err != nil {
		return err
	}

	// The socket rungs share one fleet: a shard of the serve-stream shape
	// behind a gateway, dialled directly and then through it.
	f, err := startFleet(streamShape, 1, true)
	if err != nil {
		return err
	}
	// socket streams ops of opWords to addr for d and returns the blocks moved.
	socket := func(addr string, opWords, inflight int, d time.Duration) (float64, error) {
		c, err := client.Connect(addr, client.Options{Tenant: "ladder", Accel: "echo64"})
		if err != nil {
			return 0, err
		}
		defer c.Close()
		pl := satPayload{in: [][]cohort.Word{payload[:opWords]}, want: [][]cohort.Word{payload[:opWords]}}
		clk := clock{plan{warm: d / 8, window: d, n: 1}, time.Now()}
		r := satDrive([]*client.Conn{c}, satConfig{opWords: opWords, inflight: inflight, verifyEvery: 64}, pl, clk, nil)
		if r.completed < r.attempted {
			return 0, fmt.Errorf("%d of %d ops failed", r.attempted-r.completed, r.attempted)
		}
		return float64(r.perConn[0][0].Ops*opWords) / ladderBlock, nil
	}
	err = timed("ladder.wire", func() error {
		b, err := socket(f.addrs[0], ladderPush, 32, 2*step)
		if err == nil {
			rung(3, "wire", b, 2*step)
		}
		return err
	})
	if err == nil {
		err = timed("ladder.gateway", func() error {
			b, err := socket(f.front, ladderPush, 32, 2*step)
			if err == nil {
				rung(4, "gateway", b, 2*step)
			}
			return err
		})
	}
	if err == nil {
		err = timed("wire.small_frame", func() error {
			b, err := socket(f.addrs[0], ladderBlock, 64, step)
			if err == nil {
				m["wire.small_frame_mib_s"] = b * ladderBlock * 8 / mib / step.Seconds()
			}
			return err
		})
	}
	if _, _, serr := f.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return err
	}

	timed("accel", func() error {
		m["accel.echo64_ns_per_block"] = timeProcess(&echo64{}, rng, step/2)
		m["accel.sha256_ns_per_block"] = timeProcess(cohort.NewSHA256(), rng, step/2)
		m["accel.aes128_ns_per_block"] = timeProcess(cohort.NewAES128(), rng, step/2)
		return nil
	})
	timed("wire.codec", func() error {
		m["wire.encode_ns_per_frame"], m["wire.decode_ns_per_frame"] = timeCodec(payload[:ladderBlock], step/2)
		return nil
	})
	return nil
}

func fifoPair() (in, out *cohort.Fifo[cohort.Word], err error) {
	if in, err = cohort.NewFifo[cohort.Word](streamShape.QueueCap); err != nil {
		return nil, nil, err
	}
	out, err = cohort.NewFifo[cohort.Word](streamShape.QueueCap)
	return in, out, err
}

// pump pushes payload into in from one goroutine and pops out on another for
// d, then ends the stream with closeIn and drains. It returns the blocks that
// came out and the time they took. For the bare Fifo rung in and out are one
// queue.
func pump(in, out *cohort.Fifo[cohort.Word], closeIn func(), payload []cohort.Word, d time.Duration) (blocks float64, elapsed time.Duration) {
	var stop atomic.Bool
	timer := time.AfterFunc(d, func() { stop.Store(true) })
	defer timer.Stop()
	t0 := time.Now()
	go func() {
		for !stop.Load() {
			in.PushSlice(payload)
		}
		closeIn()
	}()
	buf := make([]cohort.Word, len(payload))
	words := 0
	for {
		n := out.TryPopInto(buf)
		words += n
		if n == 0 {
			if out.Drained() {
				break
			}
			runtime.Gosched()
		}
	}
	return float64(words) / ladderBlock, time.Since(t0)
}

// hostCalibration measures the machine with no repository code, so that a
// later run on another host can be told apart from a change in the code.
func hostCalibration(m map[string]float64, d time.Duration) {
	m["host.nproc"] = float64(runtime.NumCPU())

	src, dst := make([]byte, 8<<20), make([]byte, 8<<20)
	n := 0
	t0 := time.Now()
	for time.Since(t0) < d {
		copy(dst, src)
		n++
	}
	m["host.memcpy_mib_s"] = float64(n*len(src)) / mib / time.Since(t0).Seconds()

	m["host.sleep_overshoot_us"] = us(sleepOvershoot(50))

	m["host.loopback_rtt_us"] = loopbackRTT(d)
}

// loopbackRTT is the median round trip of 8 bytes over a loopback TCP
// connection to an echoing goroutine: the floor under every socket latency.
func loopbackRTT(d time.Duration) float64 {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0
	}
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		io.Copy(c, c)
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return 0
	}
	defer c.Close()
	var rtts []float64
	msg := make([]byte, 8)
	for t0 := time.Now(); time.Since(t0) < d; {
		t := time.Now()
		if _, err := c.Write(msg); err != nil {
			return 0
		}
		if _, err := io.ReadFull(c, msg); err != nil {
			return 0
		}
		rtts = append(rtts, us(time.Since(t)))
	}
	return median(rtts)
}

// timeProcess times acc.Process on one random block for d, in ns per block.
func timeProcess(acc cohort.Accelerator, rng *rand.Rand, d time.Duration) float64 {
	in := randWords(rng, acc.InWords())
	n := 0
	t0 := time.Now()
	for time.Since(t0) < d {
		for i := 0; i < 256; i++ {
			if _, err := acc.Process(in); err != nil {
				return 0
			}
		}
		n += 256
	}
	return float64(time.Since(t0)) / float64(n)
}

// timeCodec times framing one block to io.Discard and deframing it from
// memory, in ns per frame.
func timeCodec(block []cohort.Word, d time.Duration) (encode, decode float64) {
	const frames = 1024
	w := wire.NewWriter(io.Discard)
	n := 0
	t0 := time.Now()
	for time.Since(t0) < d {
		for i := 0; i < frames; i++ {
			w.Words(block)
		}
		n += frames
	}
	encode = float64(time.Since(t0)) / float64(n)

	var stream bytes.Buffer
	sw := wire.NewWriter(&stream)
	for i := 0; i < frames; i++ {
		sw.Words(block)
	}
	n = 0
	t0 = time.Now()
	for time.Since(t0) < d {
		r := wire.NewReader(bytes.NewReader(stream.Bytes()))
		for {
			if _, _, _, err := r.NextData(); err != nil {
				break
			}
			n++
		}
	}
	return encode, float64(time.Since(t0)) / float64(n)
}

// registerRetire times admitting a session and retiring it, with no sockets:
// Register, and CloseSend until Done, n times; the medians in microseconds.
func registerRetire(n int) (register, retire float64) {
	sch := sched.New(sched.Config{})
	defer sch.Close()
	var reg, ret []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		ss, err := sch.Register(sched.SessionConfig{Tenant: "churn", Accel: &echo64{}})
		if err != nil {
			return 0, 0
		}
		t1 := time.Now()
		ss.CloseSend()
		<-ss.Done()
		reg = append(reg, us(t1.Sub(t0)))
		ret = append(ret, us(time.Since(t1)))
	}
	return median(reg), median(ret)
}
