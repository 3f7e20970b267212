package mmio

import (
	"strings"
	"testing"

	"cohort/internal/noc"
	"cohort/internal/sim"
)

func TestReadWriteRoundTrip(t *testing.T) {
	k := sim.New()
	net := noc.New(k, noc.DefaultConfig(2, 2))
	bus := NewBus(k, net)
	regs := map[uint64]uint64{}
	bus.AttachDevice(3, 0x1000_0000, 0x1000, 4, func(kind Kind, addr, val uint64) uint64 {
		if kind == Write {
			regs[addr] = val
			return 0
		}
		return regs[addr]
	})
	r := bus.Requester(0)
	var got uint64
	var wrT, rdT sim.Time
	k.Spawn("core", func(p *sim.Proc) {
		t0 := p.Now()
		r.Write(p, 0x1000_0008, 99)
		wrT = p.Now() - t0
		t0 = p.Now()
		got = r.Read(p, 0x1000_0008)
		rdT = p.Now() - t0
	})
	k.Run(0)
	if got != 99 {
		t.Fatalf("read back %d, want 99", got)
	}
	if wrT < 10 || rdT < 10 {
		t.Fatalf("MMIO ops too fast (wr=%d rd=%d): must cost a full round trip", wrT, rdT)
	}
	st := r.Stats()
	if st.Reads != 1 || st.Writes != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestMultipleDevicesRouteByAddress(t *testing.T) {
	k := sim.New()
	net := noc.New(k, noc.DefaultConfig(2, 2))
	bus := NewBus(k, net)
	var hitA, hitB int
	bus.AttachDevice(2, 0x1000, 0x100, 1, func(Kind, uint64, uint64) uint64 { hitA++; return 0xa })
	bus.AttachDevice(3, 0x2000, 0x100, 1, func(Kind, uint64, uint64) uint64 { hitB++; return 0xb })
	r := bus.Requester(1)
	var va, vb uint64
	k.Spawn("core", func(p *sim.Proc) {
		va = r.Read(p, 0x1010)
		vb = r.Read(p, 0x2020)
	})
	k.Run(0)
	if va != 0xa || vb != 0xb || hitA != 1 || hitB != 1 {
		t.Fatalf("routing wrong: va=%#x vb=%#x hits=%d/%d", va, vb, hitA, hitB)
	}
}

func TestUnmappedAddressPanics(t *testing.T) {
	k := sim.New()
	net := noc.New(k, noc.DefaultConfig(2, 2))
	bus := NewBus(k, net)
	r := bus.Requester(0)
	panicked := false
	k.Spawn("core", func(p *sim.Proc) {
		defer func() { panicked = recover() != nil }()
		r.Read(p, 0xffff_ffff)
	})
	k.Run(0)
	if !panicked {
		t.Fatal("unmapped MMIO access did not panic")
	}
}

func TestOverlappingRangesRejected(t *testing.T) {
	k := sim.New()
	net := noc.New(k, noc.DefaultConfig(2, 2))
	bus := NewBus(k, net)
	bus.AttachDevice(2, 0x1000, 0x100, 1, func(Kind, uint64, uint64) uint64 { return 0 })
	defer func() {
		if recover() == nil {
			t.Fatal("overlapping range accepted")
		}
	}()
	bus.AttachDevice(3, 0x1080, 0x100, 1, func(Kind, uint64, uint64) uint64 { return 0 })
}

func TestSerializedOpsFromTwoRequesters(t *testing.T) {
	k := sim.New()
	net := noc.New(k, noc.DefaultConfig(2, 2))
	bus := NewBus(k, net)
	var order []int
	bus.AttachDevice(3, 0x1000, 0x100, 2, func(kind Kind, addr, val uint64) uint64 {
		order = append(order, int(val))
		return 0
	})
	for i, tile := range []int{0, 1} {
		r := bus.Requester(tile)
		i := i
		k.Spawn("core", func(p *sim.Proc) {
			for j := 0; j < 5; j++ {
				r.Write(p, 0x1000, uint64(i*10+j))
			}
		})
	}
	k.Run(0)
	if len(order) != 10 {
		t.Fatalf("device saw %d ops, want 10", len(order))
	}
	// Each requester's own ops stay ordered.
	last := map[int]int{0: -1, 1: -1}
	for _, v := range order {
		who, seq := v/10, v%10
		if seq <= last[who] {
			t.Fatalf("requester %d ops reordered: %v", who, order)
		}
		last[who] = seq
	}
}

// A warm MMIO write and read round trip allocates nothing: the requester
// recycles its ops and the device its access records, each op keeping its
// signal, and messages carry typed payloads.
func TestWarmRoundTripAllocs(t *testing.T) {
	k := sim.New()
	defer k.Close()
	net := noc.New(k, noc.DefaultConfig(2, 2))
	bus := NewBus(k, net)
	var reg uint64
	bus.AttachDevice(3, 0x1000_0000, 0x1000, 4, func(kind Kind, addr, val uint64) uint64 {
		if kind == Write {
			reg = val
		}
		return reg
	})
	r := bus.Requester(0)
	start := sim.NewSignal(k)
	v := uint64(0)
	k.Spawn("core", func(p *sim.Proc) {
		for {
			start.Wait(p)
			v++
			r.Write(p, 0x1000_0008, v)
			if got := r.Read(p, 0x1000_0008); got != v {
				panic("read back a stale register")
			}
		}
	})
	k.Run(0)
	round := func() {
		start.Fire()
		k.Run(0)
	}
	round()
	if n := testing.AllocsPerRun(50, round); n != 0 {
		t.Fatalf("%.1f allocations per warm write+read round trip, want 0", n)
	}
	if st := r.Stats(); st.Reads != 52 || st.Writes != 52 || reg != 52 {
		t.Fatalf("stats %+v, register %d: want 52 of each", st, reg)
	}
}

// A device that replies twice to one access panics at the second reply,
// before it can answer anything with the recycled record.
func TestReplyTwicePanics(t *testing.T) {
	k := sim.New()
	defer k.Close()
	net := noc.New(k, noc.DefaultConfig(2, 2))
	bus := NewBus(k, net)
	bus.AttachAsyncDevice(3, 0x1000_0000, 0x1000, 4, func(kind Kind, addr, val uint64, reply func(uint64)) {
		reply(1)
		reply(2)
	})
	r := bus.Requester(0)
	k.Spawn("core", func(p *sim.Proc) { r.Read(p, 0x1000_0000) })
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "retired access") {
			t.Fatalf("second reply: recovered %q, want a retired-access panic", msg)
		}
	}()
	k.Run(0)
}
