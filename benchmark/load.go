//go:build linux

package main

import (
	"crypto/aes"
	"crypto/sha256"
	"encoding/binary"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"syscall"
	"time"

	"cohort"
)

// plan is the time shape of one run against one live system under test: a
// discarded warm-up, then n measured windows back to back. In a traced run
// the last window is the traced one.
type plan struct {
	warm   time.Duration
	window time.Duration
	n      int
	traced bool
}

// newPlan splits seconds of measuring into windows. An untraced run is five
// windows — on a shared machine a neighbour's burst lasts seconds, and the
// median of five shrugs off one that covers two of them; a traced run gives
// the workload a third of the time, as one untraced and one traced window,
// and leaves the rest to the ladder.
func newPlan(seconds float64, traced bool) plan {
	total := time.Duration(seconds * float64(time.Second))
	p := plan{warm: time.Second, window: total / 5, n: 5}
	if traced {
		p = plan{warm: 500 * time.Millisecond, window: total / 6, n: 2, traced: true}
	}
	return p
}

func (p plan) measured() time.Duration { return time.Duration(p.n) * p.window }
func (p plan) total() time.Duration    { return p.warm + p.measured() }

// clock places instants of one run into its windows.
type clock struct {
	plan
	start time.Time
}

// idx returns the window t falls in, or -1 during warm-up and after the end.
func (c clock) idx(t time.Time) int { return c.idxNs(int64(t.Sub(c.start))) }

// idxNs is idx for an offset from the run's start.
func (c clock) idxNs(ns int64) int {
	d := time.Duration(ns) - c.warm
	if d < 0 {
		return -1
	}
	if i := int(d / c.window); i < c.n {
		return i
	}
	return -1
}

func (c clock) end() time.Time { return c.start.Add(c.total()) }

// grace is how long after the last window an outstanding op may still finish
// before it counts as failed.
const grace = 2 * time.Second

// preciseSleep blocks the calling thread in the kernel for d. time.Sleep
// will not do for pacing: an idle Go process waits in epoll with a timeout
// rounded up to whole milliseconds, so any sleep shorter than a millisecond
// returns about a millisecond late, and a generator paced by it reports that
// tick as server latency.
func preciseSleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	syscall.Nanosleep(&ts, nil)
}

// sleepOvershoot measures how late preciseSleep returns on this host: the
// median over n sleeps of 200 us.
func sleepOvershoot(n int) time.Duration {
	const d = 200 * time.Microsecond
	var over []float64
	for i := 0; i < n; i++ {
		t := time.Now()
		preciseSleep(d)
		over = append(over, float64(time.Since(t)-d))
	}
	return time.Duration(median(over))
}

// spinMargin is where the pacer stops sleeping and starts spinning. It covers
// what preciseSleep was seen to overshoot by (host.sleep_overshoot_us: under
// 0.1 ms at the median, 0.3 ms at worst), and no more, because a spinning
// generator holds a core the system under test is waiting for: with the
// 1.5 ms a time.Sleep-based pacer needs, one paced request in seven waited a
// scheduler slice behind the spin, and op_p90_us tripled.
const spinMargin = 500 * time.Microsecond

// waitUntil returns at due: it sleeps to spinMargin before it and yields in a
// loop for the rest.
func waitUntil(due time.Time) {
	if d := time.Until(due) - spinMargin; d > 0 {
		preciseSleep(d)
	}
	for time.Now().Before(due) {
		runtime.Gosched()
	}
}

// poisson returns the due offsets of a Poisson arrival process of the given
// rate over total, drawn from rng.
func poisson(rng *rand.Rand, rate float64, total time.Duration) []time.Duration {
	var out []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		d := time.Duration(t * float64(time.Second))
		if d >= total {
			return out
		}
		out = append(out, d)
	}
}

// randWords draws n words from rng.
func randWords(rng *rand.Rand, n int) []cohort.Word {
	ws := make([]cohort.Word, n)
	for i := range ws {
		ws[i] = rng.Uint64()
	}
	return ws
}

// --- Oracles: what each accelerator must return, from crypto/* alone. -------

func wordsToBytes(ws []cohort.Word) []byte {
	b := make([]byte, 8*len(ws))
	for i, w := range ws {
		binary.LittleEndian.PutUint64(b[8*i:], w)
	}
	return b
}

func bytesToWords(b []byte) []cohort.Word {
	ws := make([]cohort.Word, len(b)/8)
	for i := range ws {
		ws[i] = binary.LittleEndian.Uint64(b[8*i:])
	}
	return ws
}

// sha256Ref digests each 8-word block of in into 4 words.
func sha256Ref(in []cohort.Word) []cohort.Word {
	b := wordsToBytes(in)
	out := make([]byte, 0, len(b)/2)
	for i := 0; i+64 <= len(b); i += 64 {
		sum := sha256.Sum256(b[i : i+64])
		out = append(out, sum[:]...)
	}
	return bytesToWords(out)
}

// aes128Ref encrypts each 2-word block of in with key (ECB).
func aes128Ref(key []byte, in []cohort.Word) []cohort.Word {
	c, err := aes.NewCipher(key)
	if err != nil {
		panic(err) // key is always 16 bytes
	}
	b := wordsToBytes(in)
	for i := 0; i+16 <= len(b); i += 16 {
		c.Encrypt(b[i:i+16], b[i:i+16])
	}
	return bytesToWords(b)
}

// --- Summaries ---------------------------------------------------------------

// quantile returns the q-quantile of sorted by linear interpolation.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func sorted(vs []float64) []float64 {
	s := slices.Clone(vs)
	slices.Sort(s)
	return s
}

func median(vs []float64) float64 { return quantile(sorted(vs), 0.5) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

const mib = 1 << 20

// window is what one measured window of one workload produced.
type window struct {
	Ops     int       `json:"ops"`      // ops completed (saturation) or due (open loop) in the window
	Failed  int       `json:"failed"`   // of those, how many failed
	BytesIn float64   `json:"bytes_in"` // verified input bytes of the completed ops
	Seconds float64   `json:"seconds"`  // window length
	LatUs   []float64 `json:"lat_us"`   // latency of each completed op
}

// summary folds a run's windows into the latency and goodput end-to-end
// metrics: a percentile is taken per window, then the median across windows.
type summary struct {
	goodput, p50, p75, p90, p99 float64
	samples                     int
}

func summarize(ws []window) summary {
	var g, p50, p75, p90, p99 []float64
	var s summary
	for _, w := range ws {
		lat := sorted(w.LatUs)
		g = append(g, w.BytesIn/mib/w.Seconds)
		p50 = append(p50, quantile(lat, 0.5))
		p75 = append(p75, quantile(lat, 0.75))
		p90 = append(p90, quantile(lat, 0.9))
		p99 = append(p99, quantile(lat, 0.99))
		s.samples += len(lat)
	}
	s.goodput, s.p50, s.p75, s.p90, s.p99 = median(g), median(p50), median(p75), median(p90), median(p99)
	return s
}
