package osmodel

import (
	"bytes"
	"crypto/aes"
	"crypto/sha256"
	"testing"

	"cohort/internal/accel"
	"cohort/internal/cpu"
	"cohort/internal/engine"
	"cohort/internal/maple"
	"cohort/internal/shmq"
	"cohort/internal/soc"
)

// rig: 2x2 SoC with one core (tile 0); devices added per test.
type rig struct {
	s    *soc.SoC
	os   *OS
	core *cpu.Core
	pr   *Process
}

func newRig(t *testing.T) *rig {
	t.Helper()
	s := soc.New(soc.DefaultConfig())
	core := s.AddCore(0)
	os := New(s)
	pr, err := os.NewProcess()
	if err != nil {
		t.Fatal(err)
	}
	pr.AttachCore(core)
	return &rig{s: s, os: os, core: core, pr: pr}
}

func (r *rig) queue(t *testing.T, length uint64) *shmq.Queue {
	t.Helper()
	q, err := r.pr.AllocQueue(8, length)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func TestCohortSHAEndToEnd(t *testing.T) {
	r := newRig(t)
	eng := r.s.AddEngine(2, accel.NewSHADevice(), 0)
	in := r.queue(t, 64)
	out := r.queue(t, 64)
	block := make([]byte, 64)
	for i := range block {
		block[i] = byte(i + 1)
	}
	var digest []uint64
	var status uint64
	r.core.Run("app", func(ctx *cpu.Ctx) {
		if err := r.os.RegisterCohort(ctx, r.pr, eng, in.Desc, out.Desc, RegisterCohortOptions{}); err != nil {
			t.Error(err)
			return
		}
		for _, w := range accel.BytesToWords(block) {
			in.PushBatch(ctx, []uint64{w}, 1)
		}
		for i := 0; i < 4; i++ {
			digest = append(digest, out.PopBatch(ctx, 1, 1)[0])
		}
		r.os.UnregisterCohort(ctx, eng)
		status = ctx.MMIORead(eng.MMIOBase() + engine.RegStatus)
	})
	r.s.Run(0)
	want := sha256.Sum256(block)
	if !bytes.Equal(accel.WordsToBytes(digest), want[:]) {
		t.Fatal("Cohort SHA digest mismatch")
	}
	if status != 0 {
		t.Fatal("engine still active after unregister")
	}
	st := eng.Stats()
	if st.ElemsIn != 8 || st.ElemsOut != 4 {
		t.Fatalf("engine stats %+v, want 8 in / 4 out", st)
	}
}

func TestCohortAESWithCSRKey(t *testing.T) {
	r := newRig(t)
	eng := r.s.AddEngine(2, accel.NewAESDevice(), 0)
	in := r.queue(t, 64)
	out := r.queue(t, 64)
	key := []byte("sixteen byte key")
	pt := []byte("attack at dawn!!")
	var ct []uint64
	r.core.Run("app", func(ctx *cpu.Ctx) {
		// Place the key in user memory as the CSR struct (§4.3).
		keyVA, err := r.pr.Alloc(16, true)
		if err != nil {
			t.Error(err)
			return
		}
		for i, w := range accel.BytesToWords(key) {
			ctx.Store(keyVA+uint64(8*i), w)
		}
		err = r.os.RegisterCohort(ctx, r.pr, eng, in.Desc, out.Desc,
			RegisterCohortOptions{CSRVA: keyVA, CSRLen: 16})
		if err != nil {
			t.Error(err)
			return
		}
		for _, w := range accel.BytesToWords(pt) {
			in.PushBatch(ctx, []uint64{w}, 1)
		}
		ct = append(ct, out.PopBatch(ctx, 1, 1)[0], out.PopBatch(ctx, 1, 1)[0])
	})
	r.s.Run(0)
	ref, _ := aes.NewCipher(key)
	want := make([]byte, 16)
	ref.Encrypt(want, pt)
	if !bytes.Equal(accel.WordsToBytes(ct), want) {
		t.Fatal("Cohort AES ciphertext mismatch (CSR key not applied?)")
	}
}

func TestCohortChaining(t *testing.T) {
	// Figure 5: encrypt-then-hash through two chained engines with no
	// software in the middle.
	r := newRig(t)
	aesEng := r.s.AddEngine(2, accel.NewAESDevice(), 0)
	shaEng := r.s.AddEngine(3, accel.NewSHADevice(), 0)
	encryptQ := r.queue(t, 64)
	hashQ := r.queue(t, 64) // between the two engines
	resultQ := r.queue(t, 64)
	data := make([]byte, 64) // 4 AES blocks = 1 SHA block
	for i := range data {
		data[i] = byte(0x55 ^ i)
	}
	var digest []uint64
	r.core.Run("app", func(ctx *cpu.Ctx) {
		if err := r.os.RegisterCohort(ctx, r.pr, aesEng, encryptQ.Desc, hashQ.Desc, RegisterCohortOptions{}); err != nil {
			t.Error(err)
			return
		}
		if err := r.os.RegisterCohort(ctx, r.pr, shaEng, hashQ.Desc, resultQ.Desc, RegisterCohortOptions{}); err != nil {
			t.Error(err)
			return
		}
		for _, w := range accel.BytesToWords(data) {
			encryptQ.PushBatch(ctx, []uint64{w}, 1)
		}
		for i := 0; i < 4; i++ {
			digest = append(digest, resultQ.PopBatch(ctx, 1, 1)[0])
		}
	})
	r.s.Run(0)
	// Reference: AES-ECB with the zero key, then SHA-256.
	ref, _ := aes.NewCipher(make([]byte, 16))
	enc := make([]byte, 64)
	for i := 0; i < 64; i += 16 {
		ref.Encrypt(enc[i:], data[i:])
	}
	want := sha256.Sum256(enc)
	if !bytes.Equal(accel.WordsToBytes(digest), want[:]) {
		t.Fatal("chained encrypt-then-hash mismatch")
	}
}

func TestCohortDemandPagingViaIRQ(t *testing.T) {
	r := newRig(t)
	eng := r.s.AddEngine(2, accel.NewNullDevice(1), 0)
	// Lay out queues in *lazy* memory: the engine faults on first access and
	// the IRQ path must resolve it.
	va, err := r.pr.Alloc(shmq.Footprint(8, 16), false)
	if err != nil {
		t.Fatal(err)
	}
	in, err := shmq.New(shmq.Layout(va, 8, 16))
	if err != nil {
		t.Fatal(err)
	}
	out := r.queue(t, 16)
	var got []uint64
	r.core.Run("app", func(ctx *cpu.Ctx) {
		if err := r.os.RegisterCohort(ctx, r.pr, eng, in.Desc, out.Desc,
			RegisterCohortOptions{UpdateBlock: 1}); err != nil {
			t.Error(err)
			return
		}
		for i := uint64(0); i < 8; i++ {
			in.PushBatch(ctx, []uint64{i + 100}, 1) // core faults lazily too (its own handler)
		}
		for i := 0; i < 8; i++ {
			got = append(got, out.PopBatch(ctx, 1, 1)[0])
		}
	})
	r.s.Run(0)
	for i, v := range got {
		if v != uint64(i)+100 {
			t.Fatalf("element %d = %d", i, v)
		}
	}
	if eng.Stats().Faults == 0 {
		t.Fatal("engine never faulted despite lazy queue pages")
	}
}

func TestRuntimeReconfiguration(t *testing.T) {
	// §4.5: unregister and re-register the same engine with new queues.
	r := newRig(t)
	eng := r.s.AddEngine(2, accel.NewNullDevice(1), 0)
	q1, q2 := r.queue(t, 16), r.queue(t, 16)
	q3, q4 := r.queue(t, 16), r.queue(t, 16)
	var first, second uint64
	r.core.Run("app", func(ctx *cpu.Ctx) {
		if err := r.os.RegisterCohort(ctx, r.pr, eng, q1.Desc, q2.Desc, RegisterCohortOptions{UpdateBlock: 1}); err != nil {
			t.Error(err)
			return
		}
		q1.PushBatch(ctx, []uint64{111}, 1)
		first = q2.PopBatch(ctx, 1, 1)[0]
		r.os.UnregisterCohort(ctx, eng)
		if err := r.os.RegisterCohort(ctx, r.pr, eng, q3.Desc, q4.Desc, RegisterCohortOptions{UpdateBlock: 1}); err != nil {
			t.Error(err)
			return
		}
		q3.PushBatch(ctx, []uint64{222}, 1)
		second = q4.PopBatch(ctx, 1, 1)[0]
		r.os.UnregisterCohort(ctx, eng)
	})
	r.s.Run(0)
	if first != 111 || second != 222 {
		t.Fatalf("got %d, %d", first, second)
	}
}

func TestMMUNotifierShootdown(t *testing.T) {
	r := newRig(t)
	eng := r.s.AddEngine(2, accel.NewNullDevice(1), 0)
	in, out := r.queue(t, 16), r.queue(t, 16)
	r.core.Run("app", func(ctx *cpu.Ctx) {
		if err := r.os.RegisterCohort(ctx, r.pr, eng, in.Desc, out.Desc, RegisterCohortOptions{UpdateBlock: 1}); err != nil {
			t.Error(err)
			return
		}
		in.PushBatch(ctx, []uint64{1}, 1)
		_ = out.PopBatch(ctx, 1, 1)[0]
	})
	r.s.Run(0)
	flushesBefore := eng.MMU().Stats().Flushes
	r.pr.FlushTLBs()
	if eng.MMU().Stats().Flushes != flushesBefore+1 {
		t.Fatal("MMU notifier did not flush the Cohort TLB")
	}
}

func TestMapleMMIOPath(t *testing.T) {
	r := newRig(t)
	unit := r.s.AddMaple(2, accel.NewSHADevice())
	block := make([]byte, 64)
	for i := range block {
		block[i] = byte(i * 7)
	}
	var digest []uint64
	r.core.Run("app", func(ctx *cpu.Ctx) {
		r.os.SetupMaple(ctx, r.pr, unit)
		base := unit.MMIOBase()
		for _, w := range accel.BytesToWords(block) {
			ctx.MMIOWrite(base+maple.RegDataIn, w)
		}
		for i := 0; i < 4; i++ {
			digest = append(digest, ctx.MMIORead(base+maple.RegDataOut))
		}
	})
	r.s.Run(0)
	want := sha256.Sum256(block)
	if !bytes.Equal(accel.WordsToBytes(digest), want[:]) {
		t.Fatal("MAPLE MMIO SHA digest mismatch")
	}
	st := unit.Stats()
	if st.MMIOWordsIn != 8 || st.MMIOWordsOut != 4 {
		t.Fatalf("unit stats %+v", st)
	}
}

func TestMapleDMAPath(t *testing.T) {
	r := newRig(t)
	unit := r.s.AddMaple(2, accel.NewSHADevice())
	src := make([]byte, 256) // 4 SHA blocks
	for i := range src {
		src[i] = byte(i)
	}
	out := make([]uint64, 16) // 4 digests
	r.core.Run("app", func(ctx *cpu.Ctx) {
		r.os.SetupMaple(ctx, r.pr, unit)
		srcVA, err := r.pr.Alloc(256, true)
		if err != nil {
			t.Error(err)
			return
		}
		dstVA, err := r.pr.Alloc(128, true)
		if err != nil {
			t.Error(err)
			return
		}
		for i, w := range accel.BytesToWords(src) {
			ctx.Store(srcVA+uint64(8*i), w)
		}
		// Pre-touch destination so DMA pages are resident, then flush our
		// dirty lines... not needed: coherence handles it. Program the DMA.
		base := unit.MMIOBase()
		ctx.MMIOWrite(base+maple.RegDMASrc, srcVA)
		ctx.MMIOWrite(base+maple.RegDMADst, dstVA)
		ctx.MMIOWrite(base+maple.RegDMALen, 256)
		ctx.MMIOWrite(base+maple.RegDMAKick, 1)
		_ = ctx.MMIORead(base + maple.RegDMAKick) // stalls until done
		for i := range out {
			out[i] = ctx.Load(dstVA + uint64(8*i))
		}
	})
	r.s.Run(0)
	for b := 0; b < 4; b++ {
		want := sha256.Sum256(src[64*b : 64*b+64])
		got := accel.WordsToBytes(out[4*b : 4*b+4])
		if !bytes.Equal(got, want[:]) {
			t.Fatalf("DMA block %d digest mismatch", b)
		}
	}
	if unit.Stats().DMAOps != 1 || unit.Stats().DMABytes != 256 {
		t.Fatalf("unit stats %+v", unit.Stats())
	}
}

func TestMapleCSRKey(t *testing.T) {
	r := newRig(t)
	unit := r.s.AddMaple(2, accel.NewAESDevice())
	key := []byte("0123456789abcdef")
	pt := []byte("network access!!")
	var ct []uint64
	r.core.Run("app", func(ctx *cpu.Ctx) {
		base := unit.MMIOBase()
		for i, w := range accel.BytesToWords(key) {
			ctx.MMIOWrite(base+maple.RegCSRData+uint64(8*i), w)
		}
		ctx.MMIOWrite(base+maple.RegCSRCommit, 16)
		for _, w := range accel.BytesToWords(pt) {
			ctx.MMIOWrite(base+maple.RegDataIn, w)
		}
		ct = append(ct, ctx.MMIORead(base+maple.RegDataOut), ctx.MMIORead(base+maple.RegDataOut))
	})
	r.s.Run(0)
	ref, _ := aes.NewCipher(key)
	want := make([]byte, 16)
	ref.Encrypt(want, pt)
	if !bytes.Equal(accel.WordsToBytes(ct), want) {
		t.Fatal("MAPLE AES ciphertext mismatch")
	}
}

func TestSegfaultIsFatal(t *testing.T) {
	r := newRig(t)
	panicked := false
	r.core.Run("app", func(ctx *cpu.Ctx) {
		defer func() { panicked = recover() != nil }()
		ctx.Load(0xdead_0000_0000)
	})
	r.s.Run(0)
	if !panicked {
		t.Fatal("wild access did not fault fatally")
	}
}

func TestCohortIsFasterThanMMIOForSHA(t *testing.T) {
	// The headline claim, in miniature: stream 512 elements through SHA via
	// Cohort (batch 64) and via MAPLE MMIO; Cohort must win comfortably.
	elems := 512
	data := make([]uint64, elems)
	for i := range data {
		data[i] = uint64(i)
	}

	cohortRun := func() uint64 {
		r := newRig(t)
		eng := r.s.AddEngine(2, accel.NewSHADevice(), 0)
		in, out := r.queue(t, 1024), r.queue(t, 1024)
		var cycles uint64
		r.core.Run("app", func(ctx *cpu.Ctx) {
			if err := r.os.RegisterCohort(ctx, r.pr, eng, in.Desc, out.Desc, RegisterCohortOptions{}); err != nil {
				t.Error(err)
				return
			}
			ctx.ResetCounters()
			in.PushBatch(ctx, data, 64)
			_ = out.PopBatch(ctx, elems/2, 64)
			cycles = uint64(ctx.Cycles())
		})
		r.s.Run(0)
		return cycles
	}
	mmioRun := func() uint64 {
		r := newRig(t)
		unit := r.s.AddMaple(2, accel.NewSHADevice())
		var cycles uint64
		r.core.Run("app", func(ctx *cpu.Ctx) {
			r.os.SetupMaple(ctx, r.pr, unit)
			base := unit.MMIOBase()
			ctx.ResetCounters()
			for b := 0; b < elems/8; b++ {
				for i := 0; i < 8; i++ {
					ctx.MMIOWrite(base+maple.RegDataIn, data[8*b+i])
				}
				for i := 0; i < 4; i++ {
					_ = ctx.MMIORead(base + maple.RegDataOut)
				}
			}
			cycles = uint64(ctx.Cycles())
		})
		r.s.Run(0)
		return cycles
	}
	c, m := cohortRun(), mmioRun()
	if c*2 > m {
		t.Fatalf("Cohort (%d cycles) not at least 2x faster than MMIO (%d cycles)", c, m)
	}
}

func TestInterProcessQueueSharing(t *testing.T) {
	// §4.5: two processes share one queue's memory; an engine consumes from
	// process A's pushes and produces into a queue popped by process B.
	r := newRig(t) // process A on core 0
	coreB := r.s.AddCore(1)
	prB, err := r.os.NewProcess()
	if err != nil {
		t.Fatal(err)
	}
	prB.AttachCore(coreB)

	eng := r.s.AddEngine(2, accel.NewNullDevice(1), 0)
	inProd, _, err := r.pr.ShareQueue(prB, 8, 16) // A produces
	if err != nil {
		t.Fatal(err)
	}
	outProd, outCons, err := r.pr.ShareQueue(prB, 8, 16) // B consumes
	if err != nil {
		t.Fatal(err)
	}
	_ = outProd
	var got []uint64
	r.core.Run("producer-proc", func(ctx *cpu.Ctx) {
		if err := r.os.RegisterCohort(ctx, r.pr, eng, inProd.Desc, outProd.Desc,
			RegisterCohortOptions{UpdateBlock: 1}); err != nil {
			t.Error(err)
			return
		}
		for i := uint64(0); i < 8; i++ {
			inProd.PushBatch(ctx, []uint64{1000 + i}, 1)
		}
	})
	coreB.Run("consumer-proc", func(ctx *cpu.Ctx) {
		for i := 0; i < 8; i++ {
			got = append(got, outCons.PopBatch(ctx, 1, 1)[0])
		}
	})
	r.s.Run(0)
	for i, v := range got {
		if v != 1000+uint64(i) {
			t.Fatalf("element %d = %d (cross-process queue corrupted)", i, v)
		}
	}
}

func TestShareRegionRejectsUnmapped(t *testing.T) {
	r := newRig(t)
	prB, err := r.os.NewProcess()
	if err != nil {
		t.Fatal(err)
	}
	if err := r.pr.ShareRegion(prB, 0x7000_0000, 4096); err == nil {
		t.Fatal("sharing an unmapped region succeeded")
	}
	if err := r.pr.ShareRegion(prB, 0x7000_0001, 4096); err == nil {
		t.Fatal("unaligned share accepted")
	}
}

func TestTwoCoresTwoEnginesConcurrently(t *testing.T) {
	// SMP: core 0 drives SHA on tile 2 while core 1 drives AES on tile 3,
	// simultaneously; both must verify.
	r := newRig(t)
	coreB := r.s.AddCore(1)
	r.pr.AttachCore(coreB)
	shaEng := r.s.AddEngine(2, accel.NewSHADevice(), 0)
	aesEng := r.s.AddEngine(3, accel.NewAESDevice(), 1)

	shaIn, shaOut := r.queue(t, 64), r.queue(t, 64)
	aesIn, aesOut := r.queue(t, 64), r.queue(t, 64)

	shaData := make([]byte, 128)
	aesData := make([]byte, 64)
	for i := range shaData {
		shaData[i] = byte(i + 3)
	}
	for i := range aesData {
		aesData[i] = byte(i ^ 0x5a)
	}
	var shaDigests, aesCts []uint64
	r.core.Run("sha-app", func(ctx *cpu.Ctx) {
		if err := r.os.RegisterCohort(ctx, r.pr, shaEng, shaIn.Desc, shaOut.Desc, RegisterCohortOptions{}); err != nil {
			t.Error(err)
			return
		}
		for _, w := range accel.BytesToWords(shaData) {
			shaIn.PushBatch(ctx, []uint64{w}, 1)
		}
		for i := 0; i < 8; i++ {
			shaDigests = append(shaDigests, shaOut.PopBatch(ctx, 1, 1)[0])
		}
	})
	coreB.Run("aes-app", func(ctx *cpu.Ctx) {
		if err := r.os.RegisterCohort(ctx, r.pr, aesEng, aesIn.Desc, aesOut.Desc, RegisterCohortOptions{}); err != nil {
			t.Error(err)
			return
		}
		for _, w := range accel.BytesToWords(aesData) {
			aesIn.PushBatch(ctx, []uint64{w}, 1)
		}
		for i := 0; i < 8; i++ {
			aesCts = append(aesCts, aesOut.PopBatch(ctx, 1, 1)[0])
		}
	})
	r.s.Run(0)
	for b := 0; b < 2; b++ {
		want := sha256.Sum256(shaData[64*b : 64*b+64])
		if !bytes.Equal(accel.WordsToBytes(shaDigests[4*b:4*b+4]), want[:]) {
			t.Fatalf("SHA block %d mismatch under SMP", b)
		}
	}
	ref, _ := aes.NewCipher(make([]byte, 16))
	for b := 0; b < 4; b++ {
		want := make([]byte, 16)
		ref.Encrypt(want, aesData[16*b:])
		if !bytes.Equal(accel.WordsToBytes(aesCts[2*b:2*b+2]), want) {
			t.Fatalf("AES block %d mismatch under SMP", b)
		}
	}
}

func TestHugePageQueuesReduceEngineTLBMisses(t *testing.T) {
	run := func(huge bool) (uint64, bool) {
		r := newRig(t)
		eng := r.s.AddEngine(2, accel.NewSHADevice(), 0)
		alloc := r.pr.AllocQueue
		if huge {
			alloc = r.pr.AllocQueueHuge
		}
		in, err := alloc(8, 2048) // 16 KiB of data: 5+ small pages per queue
		if err != nil {
			t.Fatal(err)
		}
		out, err := alloc(8, 2048)
		if err != nil {
			t.Fatal(err)
		}
		data := make([]uint64, 2048)
		ok := true
		r.core.Run("app", func(ctx *cpu.Ctx) {
			if err := r.os.RegisterCohort(ctx, r.pr, eng, in.Desc, out.Desc, RegisterCohortOptions{}); err != nil {
				t.Error(err)
				return
			}
			in.PushBatch(ctx, data, 64)
			got := out.PopBatch(ctx, 1024, 64)
			zero := sha256.Sum256(make([]byte, 64))
			zw := accel.BytesToWords(zero[:])
			for i := 0; i < 4; i++ {
				if got[i] != zw[i] {
					ok = false
				}
			}
		})
		r.s.Run(0)
		return eng.MMU().Stats().TLBMisses, ok
	}
	smallMisses, ok1 := run(false)
	hugeMisses, ok2 := run(true)
	if !ok1 || !ok2 {
		t.Fatal("digest check failed")
	}
	if hugeMisses >= smallMisses {
		t.Fatalf("huge pages (%d misses) not better than 4K pages (%d misses)", hugeMisses, smallMisses)
	}
}

func TestCohortWithPointerModeQueues(t *testing.T) {
	// §4.1.1: the engine must drive queues whose shared words are wrapping
	// pointers, not indices. SHA end to end, small queues to force wraps.
	r := newRig(t)
	eng := r.s.AddEngine(2, accel.NewSHADevice(), 0)
	in, err := r.pr.AllocPtrQueue(8, 16)
	if err != nil {
		t.Fatal(err)
	}
	out, err := r.pr.AllocPtrQueue(8, 16)
	if err != nil {
		t.Fatal(err)
	}
	const blocks = 5
	data := make([]byte, 64*blocks)
	for i := range data {
		data[i] = byte(i * 11)
	}
	var digests []uint64
	r.core.Run("app", func(ctx *cpu.Ctx) {
		in.Init(ctx)
		out.Init(ctx)
		if err := r.os.RegisterCohort(ctx, r.pr, eng, in.Desc, out.Desc, RegisterCohortOptions{}); err != nil {
			t.Error(err)
			return
		}
		words := accel.BytesToWords(data)
		popped := 0
		for b := 0; b < blocks; b++ {
			for i := 0; i < 8; i++ {
				in.Push(ctx, words[8*b+i])
			}
			for i := 0; i < 4; i++ {
				digests = append(digests, out.Pop(ctx))
				popped++
			}
		}
	})
	r.s.Run(0)
	for b := 0; b < blocks; b++ {
		want := sha256.Sum256(data[64*b : 64*b+64])
		got := accel.WordsToBytes(digests[4*b : 4*b+4])
		if !bytes.Equal(got, want[:]) {
			t.Fatalf("pointer-mode block %d digest mismatch", b)
		}
	}
}

func TestCohortMixedQueueModes(t *testing.T) {
	// Input indexed, output pointer-organised: the two sides are independent
	// descriptors.
	r := newRig(t)
	eng := r.s.AddEngine(2, accel.NewNullDevice(1), 0)
	in := r.queue(t, 16)
	out, err := r.pr.AllocPtrQueue(8, 16)
	if err != nil {
		t.Fatal(err)
	}
	var got []uint64
	r.core.Run("app", func(ctx *cpu.Ctx) {
		out.Init(ctx)
		if err := r.os.RegisterCohort(ctx, r.pr, eng, in.Desc, out.Desc, RegisterCohortOptions{UpdateBlock: 1}); err != nil {
			t.Error(err)
			return
		}
		for i := uint64(0); i < 40; i++ { // wraps the 16-slot pointer ring
			in.PushBatch(ctx, []uint64{500 + i}, 1)
			got = append(got, out.Pop(ctx))
		}
	})
	r.s.Run(0)
	for i, v := range got {
		if v != 500+uint64(i) {
			t.Fatalf("element %d = %d through mixed-mode queues", i, v)
		}
	}
}

func TestCohortWithAXIStreamAccelerator(t *testing.T) {
	// §4.3: an AXI-Stream (TLAST-framed) accelerator behind the engine. The
	// software pushes a length-prefixed message of arbitrary size and pops
	// the digest — no fixed block ratio anywhere.
	r := newRig(t)
	eng := r.s.AddEngine(2, accel.NewAXIStreamSHA(1), 0)
	in, out := r.queue(t, 64), r.queue(t, 64)
	msg := make([]byte, 3*64+8) // deliberately not a SHA block multiple
	for i := range msg {
		msg[i] = byte(i * 5)
	}
	words := accel.BytesToWords(msg)
	var digest []uint64
	r.core.Run("app", func(ctx *cpu.Ctx) {
		if err := r.os.RegisterCohort(ctx, r.pr, eng, in.Desc, out.Desc,
			RegisterCohortOptions{UpdateBlock: 8}); err != nil {
			t.Error(err)
			return
		}
		in.PushBatch(ctx, []uint64{uint64(len(words))}, 1) // frame header -> TLAST position
		for _, w := range words {
			in.PushBatch(ctx, []uint64{w}, 1)
		}
		_ = out.PopBatch(ctx, 1, 1)[0] // response frame length (4)
		for i := 0; i < 4; i++ {
			digest = append(digest, out.PopBatch(ctx, 1, 1)[0])
		}
	})
	r.s.Run(0)
	want := sha256.Sum256(msg)
	if !bytes.Equal(accel.WordsToBytes(digest), want[:]) {
		t.Fatal("AXI-Stream SHA digest mismatch through the engine")
	}
}
