package coherence

import (
	"testing"

	"cohort/internal/mem"
	"cohort/internal/sim"
)

// rounds spawns a process that runs body once per round and returns the
// round: release the process, then run the kernel until it parks again.
func rounds(k *sim.Kernel, body func(p *sim.Proc)) func() {
	start := sim.NewSignal(k)
	k.Spawn("rounds", func(p *sim.Proc) {
		for {
			start.Wait(p)
			body(p)
		}
	})
	k.Run(0)
	return func() {
		start.Fire()
		k.Run(0)
	}
}

// pinnedRounds is how many rounds pinZeroAllocs runs: two to warm up, and
// AllocsPerRun's own warm-up run before its 50 measured ones.
const pinnedRounds = 2 + 1 + 50

// pinZeroAllocs warms round up — MSHRs, directory lines and their queues,
// in-flight messages and the event heap reach their peak — then requires
// that further rounds allocate nothing.
func pinZeroAllocs(t *testing.T, what string, round func()) {
	t.Helper()
	round()
	round()
	if n := testing.AllocsPerRun(50, round); n != 0 {
		t.Fatalf("%.1f allocations per warm %s, want 0", n, what)
	}
}

// A warm GetM that the directory serves by fetching the line from its
// other owner: two caches take turns writing one line.
func TestWarmGetMAllocs(t *testing.T) {
	r := newRig(2, 2, DefaultConfig())
	defer r.k.Close()
	a, b := r.sys.NewCache(0, "a"), r.sys.NewCache(3, "b")
	const line = 0x1000
	v := uint64(0)
	round := rounds(r.k, func(p *sim.Proc) {
		v++
		a.WriteU64(p, line, v)
		v++
		b.WriteU64(p, line, v)
	})
	round() // a's first write finds the line uncached: no Fetch
	before := r.sys.Stats()
	pinZeroAllocs(t, "GetM", round)
	st := r.sys.Stats()
	if got := st.GetM - before.GetM; got != 2*pinnedRounds {
		t.Fatalf("%d GetMs in %d rounds, want %d", got, pinnedRounds, 2*pinnedRounds)
	}
	if st.FetchSent-before.FetchSent != 2*pinnedRounds {
		t.Fatalf("%d Fetches in %d rounds, want one per GetM", st.FetchSent-before.FetchSent, pinnedRounds)
	}
	r.sys.FlushForTest()
	if got := r.m.ReadU64(line); got != v {
		t.Fatalf("line holds %d, want %d", got, v)
	}
}

// A warm GetS miss: one cache reads Ways+1 lines of one set in turn, so LRU
// evicts (silently: the lines are clean) the line each read needs next.
func TestWarmGetSAllocs(t *testing.T) {
	cfg := DefaultConfig()
	r := newRig(2, 2, cfg)
	defer r.k.Close()
	c := r.sys.NewCache(0, "c")
	lines := make([]mem.PAddr, cfg.Ways+1)
	for i := range lines {
		lines[i] = mem.PAddr(0x4000 + i*cfg.Sets*mem.LineSize) // all in set 0
		r.m.WriteU64(lines[i], uint64(i)+1)
	}
	round := rounds(r.k, func(p *sim.Proc) {
		for i, l := range lines {
			if got := c.ReadU64(p, l); got != uint64(i)+1 {
				panic("GetS returned stale data")
			}
		}
	})
	before := r.sys.Stats()
	pinZeroAllocs(t, "GetS", round)
	if got := r.sys.Stats().GetS - before.GetS; got != uint64(len(lines))*pinnedRounds {
		t.Fatalf("%d GetS in %d rounds, want %d", got, pinnedRounds, len(lines)*pinnedRounds)
	}
}

// A warm 8-word WriteOnceSpan over a line another cache reads: the PutOnce
// takes the line back from the reader, which holds it Exclusive, and the
// reader's next read misses and sees the new words.
func TestWarmWriteOnceSpanAllocs(t *testing.T) {
	r := newRig(2, 2, DefaultConfig())
	defer r.k.Close()
	reader, writer := r.sys.NewCache(1, "reader"), r.sys.NewCache(2, "writer")
	const line = 0x8000
	words := make([]uint64, 8)
	round := rounds(r.k, func(p *sim.Proc) {
		if got := reader.ReadU64(p, line+56); got != words[7] {
			panic("reader missed the previous span")
		}
		for i := range words {
			words[i]++
		}
		writer.WriteOnceSpan(p, line, words)
	})
	before := r.sys.Stats()
	pinZeroAllocs(t, "8-word WriteOnceSpan", round)
	st := r.sys.Stats()
	if st.PutOnce-before.PutOnce != pinnedRounds || st.FetchSent-before.FetchSent != pinnedRounds {
		t.Fatalf("%d PutOnces and %d Fetches in %d rounds, want %d each",
			st.PutOnce-before.PutOnce, st.FetchSent-before.FetchSent, pinnedRounds, pinnedRounds)
	}
	for i, w := range words {
		if got := r.m.ReadU64(line + mem.PAddr(8*i)); got != w {
			t.Fatalf("word %d = %d, want %d", i, got, w)
		}
	}
}
