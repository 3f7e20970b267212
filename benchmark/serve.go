//go:build linux

package main

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"cohort"
	"cohort/client"
)

// Shard shapes. The streaming workloads take the issue's large queues; the
// gateway workloads take the scheduler's defaults, the deployed shape.
var (
	streamShape  = shardConfig{Engines: 2, Quantum: 64, QueueCap: 16384}
	computeShape = shardConfig{Engines: 1, Quantum: 64, QueueCap: 16384}
	defaultShape = shardConfig{Engines: 2, Quantum: 32, QueueCap: 1024}
)

// outcome is what driving one workload produced, whichever process drove it.
type outcome struct {
	Windows   []window           `json:"windows"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Completed int                `json:"completed"` // ops finished over the system's whole life
	Blocks    int                `json:"blocks"`    // accelerator blocks those ops were
	Layer     map[string]float64 `json:"layer,omitempty"`
	Trace     *traceSet          `json:"trace,omitempty"`
}

// system is a live serving system under test and the generator's standing
// connections to it.
type system struct {
	fleet *fleet
	conns []*client.Conn
}

func (s *system) closeConns() {
	for _, c := range s.conns {
		c.Close()
	}
	s.conns = nil
}

// serving describes one serving workload: the fleet it needs, the sessions
// the generator holds open from set-up on, and how it is driven.
type serving struct {
	shape   shardConfig
	shards  int
	gateway bool
	tenants []client.Options
	drive   func(s *system, clk clock, tr *tracer) (outcome, error)
	// extra adds the per-layer metrics that need a second system (traced run
	// only); it runs after the main system has stopped.
	extra func(o *outcome) error
}

// setup starts the fleet and opens the standing sessions; it is what
// setup_s times.
func (sv serving) setup(traced bool) (*system, error) {
	f, err := startFleet(sv.shape, sv.shards, sv.gateway)
	if err != nil {
		return nil, err
	}
	s := &system{fleet: f}
	for _, opt := range sv.tenants {
		opt.ServerTiming = traced
		c, err := client.Connect(f.front, opt)
		if err != nil {
			s.closeConns()
			f.kill()
			return nil, err
		}
		s.conns = append(s.conns, c)
	}
	return s, nil
}

// --- Closed loop at saturation (serve-stream, serve-compute, ladder) ---------

// satConfig shapes a closed loop with a fixed number of ops in flight per
// connection. Bounding the ops in flight, instead of leaving it to however
// far the kernel has grown its socket buffers, is what makes the op latency
// a property of the system: by Little's law it is inflight x service time.
type satConfig struct {
	opWords     int // words per Send
	inflight    int // Sends outstanding per connection
	verifyEvery int // check one op in this many against the oracle
	weights     []int
}

// satPayload is a small pool of distinct ops and the output each must give.
type satPayload struct {
	in, want [][]cohort.Word
}

func newSatPayload(rng *rand.Rand, opWords int, oracle func([]cohort.Word) []cohort.Word) satPayload {
	var p satPayload
	for i := 0; i < 16; i++ {
		in := randWords(rng, opWords)
		p.in = append(p.in, in)
		p.want = append(p.want, oracle(in))
	}
	return p
}

type stamp struct{ start, sent time.Time }

// satResult is a closed loop's raw outcome, per connection.
type satResult struct {
	perConn   [][]window
	attempted int
	completed int
}

// satDrive streams ops on every connection until clk ends, then closes each
// stream and drains it. One sender and one receiver goroutine per connection.
func satDrive(conns []*client.Conn, cfg satConfig, pl satPayload, clk clock, tr *tracer) satResult {
	res := satResult{perConn: make([][]window, len(conns))}
	sent := make([]int, len(conns))
	done := make([]int, len(conns))
	var wg sync.WaitGroup
	for ci, c := range conns {
		ws := make([]window, clk.n)
		for i := range ws {
			ws[i].Seconds = clk.window.Seconds()
		}
		res.perConn[ci] = ws
		slots := make(chan struct{}, cfg.inflight)
		stamps := make(chan stamp, cfg.inflight) // never blocks: one per slot
		recvDone := make(chan struct{})
		// An op still out when the grace period ends has failed: closing the
		// connection unblocks both goroutines.
		watchdog := time.AfterFunc(time.Until(clk.end())+grace, func() { c.Close() })
		wg.Add(2)
		go func() { // sender
			defer wg.Done()
			for op := 0; ; op++ {
				select {
				case slots <- struct{}{}:
				case <-recvDone:
					return
				}
				t0 := time.Now()
				if !t0.Before(clk.end()) {
					break
				}
				sent[ci]++
				err := c.Send(pl.in[op%len(pl.in)])
				stamps <- stamp{t0, time.Now()}
				if err != nil {
					return
				}
			}
			c.CloseSend()
		}()
		go func() { // receiver
			defer wg.Done()
			defer watchdog.Stop()
			defer close(recvDone)
			outWords := cfg.opWords / c.InWords() * c.OutWords()
			buf := make([]cohort.Word, outWords)
			for op := 0; ; op++ {
				var r0 time.Time
				if tr != nil {
					r0 = time.Now()
				}
				for filled := 0; filled < outWords; {
					n, err := c.RecvInto(buf[filled:])
					if err != nil {
						return // io.EOF between ops is the clean end
					}
					filled += n
				}
				now := time.Now()
				st := <-stamps
				<-slots
				if op%cfg.verifyEvery == 0 && !slices.Equal(buf, pl.want[op%len(pl.want)]) {
					continue // never counted done, so it counts failed
				}
				done[ci]++
				w := clk.idx(now)
				if w >= 0 {
					ws[w].Ops++
					ws[w].BytesIn += float64(8 * cfg.opWords)
					ws[w].LatUs = append(ws[w].LatUs, us(now.Sub(st.start)))
				}
				if tr != nil && w == clk.n-1 {
					req := uint64(ci)<<32 | uint64(op)
					root := tr.add("op", req, -1, st.start, now)
					tr.add("client.Send", req, root, st.start, st.sent)
					tr.add("client.RecvInto", req, root, r0, now)
				}
			}
		}()
	}
	wg.Wait()
	for ci := range conns {
		res.attempted += sent[ci]
		res.completed += done[ci]
	}
	return res
}

// merge folds per-connection windows into one window per index.
func merge(perConn [][]window) []window {
	out := make([]window, len(perConn[0]))
	for _, ws := range perConn {
		for i, w := range ws {
			out[i].Seconds = w.Seconds
			out[i].Ops += w.Ops
			out[i].Failed += w.Failed
			out[i].BytesIn += w.BytesIn
			out[i].LatUs = append(out[i].LatUs, w.LatUs...)
		}
	}
	return out
}

// shareMin is the fairness figure of one window: over connections, the least
// observed share of completed ops divided by the share its weight entitles it
// to. 1 is perfectly fair; both connections are backlogged for the whole
// window, so there is no head-start bias.
func shareMin(perConn [][]window, weights []int, w int) float64 {
	var ops, wsum float64
	for ci := range perConn {
		ops += float64(perConn[ci][w].Ops)
		wsum += float64(weights[ci])
	}
	if ops == 0 {
		return 0
	}
	least := 0.0
	for ci := range perConn {
		r := (float64(perConn[ci][w].Ops) / ops) / (float64(weights[ci]) / wsum)
		if ci == 0 || r < least {
			least = r
		}
	}
	return least
}

// serverTiming folds the sessions' server-reported stage means (weighted by
// sample count) into the sched.* layer metrics.
func serverTiming(conns []*client.Conn, layer map[string]float64) {
	var q, d, c, e, n float64
	for _, cn := range conns {
		t := cn.LastServerTiming()
		if t == nil {
			continue
		}
		k := float64(t.Compute.Samples)
		q += t.Queue.MeanNs * k
		d += t.Sched.MeanNs * k
		c += t.Compute.MeanNs * k
		e += t.Wire.MeanNs * k
		n += k
	}
	if n == 0 {
		return
	}
	layer["sched.queue_us_mean"] = q / n / 1e3
	layer["sched.dispatch_us_mean"] = d / n / 1e3
	layer["sched.compute_us_mean"] = c / n / 1e3
	layer["sched.egress_us_mean"] = e / n / 1e3
}

// saturation builds a closed-loop serving workload over one shard.
func saturation(seed int64, shape shardConfig, accel string, cfg satConfig, oracle func([]cohort.Word) []cohort.Word) serving {
	pl := newSatPayload(rand.New(rand.NewSource(seed)), cfg.opWords, oracle)
	sv := serving{shape: shape, shards: 1}
	for i, w := range cfg.weights {
		sv.tenants = append(sv.tenants, client.Options{Tenant: fmt.Sprintf("tenant%d", i), Accel: accel, Weight: w})
	}
	sv.drive = func(s *system, clk clock, tr *tracer) (outcome, error) {
		r := satDrive(s.conns, cfg, pl, clk, tr)
		o := outcome{Windows: merge(r.perConn), Attempted: r.attempted, Failed: r.attempted - r.completed, Completed: r.completed}
		o.Blocks = r.completed * cfg.opWords / s.conns[0].InWords()
		if clk.traced {
			var shares []float64
			for w := 0; w < clk.n; w++ {
				shares = append(shares, shareMin(r.perConn, cfg.weights, w))
			}
			o.Layer = map[string]float64{"sched.tenant_share_min": median(shares)}
			serverTiming(s.conns, o.Layer)
		}
		return o, nil
	}
	return sv
}

func echoRef(in []cohort.Word) []cohort.Word { return in }

func serveStream(seed int64) serving {
	return saturation(seed, streamShape, "echo64",
		satConfig{opWords: 64 * 64, inflight: 8, verifyEvery: 64, weights: []int{1, 1}}, echoRef)
}

func serveCompute(seed int64) serving {
	return saturation(seed, computeShape, "sha256",
		satConfig{opWords: 64 * 8, inflight: 8, verifyEvery: 64, weights: []int{2, 1}}, sha256Ref)
}

// --- Open loop: paced requests on standing sessions (serve-paced) ------------

// pacedReq is one request's life, as offsets from the clock's start. The
// sender writes the first three fields and the receiver the rest; they are
// read only after both goroutines have ended.
type pacedReq struct {
	due, sendStart, sendEnd int64
	first, last             int64 // first and last output word in hand; 0 = never
	ok                      bool
}

// pacedLoad is one connection's share of the schedule.
type pacedLoad struct {
	reqs []pacedReq
	in   [][]cohort.Word
	want [][]cohort.Word
}

const pacedReqWords = 64

// pacedSchedule draws a Poisson schedule of rate req/s over total, deals each
// arrival to one of n connections at random, and draws every payload — all
// from seed alone.
func pacedSchedule(seed int64, rate float64, total time.Duration, n int, oracle func([]cohort.Word) []cohort.Word) []*pacedLoad {
	rng := rand.New(rand.NewSource(seed))
	loads := make([]*pacedLoad, n)
	for i := range loads {
		loads[i] = &pacedLoad{}
	}
	for _, due := range poisson(rng, rate, total) {
		l := loads[rng.Intn(n)]
		in := randWords(rng, pacedReqWords)
		l.reqs = append(l.reqs, pacedReq{due: int64(due)})
		l.in = append(l.in, in)
		l.want = append(l.want, oracle(in))
	}
	return loads
}

// pacedDrive sends every request at its due time on its connection and
// retires it when its last output word arrives: after
// (request words / InWords) x OutWords words, never assuming one word out per
// word in.
//
// One goroutine paces and sends for all connections, in due order, so at most
// one core ever spins towards a due time; the other is left to the system
// under test and to the receivers.
func pacedDrive(conns []*client.Conn, loads []*pacedLoad, clk clock) {
	var wg sync.WaitGroup
	for ci, c := range conns {
		l := loads[ci]
		watchdog := time.AfterFunc(time.Until(clk.end())+grace, func() { c.Close() })
		wg.Add(1)
		go func() { // receiver
			defer wg.Done()
			defer watchdog.Stop()
			outWords := pacedReqWords / c.InWords() * c.OutWords()
			buf := make([]cohort.Word, outWords)
			for i := range l.reqs {
				r := &l.reqs[i]
				for filled := 0; filled < outWords; {
					n, err := c.RecvInto(buf[filled:])
					if err != nil {
						return
					}
					if filled == 0 {
						r.first = int64(time.Since(clk.start))
					}
					filled += n
				}
				r.last = int64(time.Since(clk.start))
				r.ok = slices.Equal(buf, l.want[i])
			}
			// Drain to the Done frame so the session retires cleanly.
			for {
				if _, err := c.RecvInto(buf); err != nil {
					return
				}
			}
		}()
	}
	next := make([]int, len(conns)) // next unsent request of each connection
	for {
		ci := -1
		for i, l := range loads {
			if next[i] < len(l.reqs) && (ci < 0 || l.reqs[next[i]].due < loads[ci].reqs[next[ci]].due) {
				ci = i
			}
		}
		if ci < 0 {
			break
		}
		r := &loads[ci].reqs[next[ci]]
		waitUntil(clk.start.Add(time.Duration(r.due)))
		r.sendStart = int64(time.Since(clk.start))
		err := conns[ci].Send(loads[ci].in[next[ci]])
		r.sendEnd = int64(time.Since(clk.start))
		if next[ci]++; err != nil {
			next[ci] = len(loads[ci].reqs) // a dead connection sends no more
		}
	}
	for _, c := range conns {
		c.CloseSend()
	}
	wg.Wait()
}

// sloLimit is the latency limit of the paced workload.
const sloLimit = 2 * time.Millisecond

// openLoopStats is what an open-loop run yields besides its windows: the
// stages of the closed sum, per window.
type openLoopStats struct {
	clk      clock
	windows  []window
	late     [][]float64   // generator lateness per window
	names    []string      // the stages' metric names
	stages   [][][]float64 // stage -> window -> samples (us)
	slo      []int         // per window: ops done within sloLimit
	ops, bad int           // over the whole run
}

func newOpenLoopStats(clk clock, names ...string) *openLoopStats {
	s := &openLoopStats{
		clk: clk, windows: make([]window, clk.n), late: make([][]float64, clk.n),
		names: names, stages: make([][][]float64, len(names)), slo: make([]int, clk.n),
	}
	for i := range s.windows {
		s.windows[i].Seconds = clk.window.Seconds()
	}
	for i := range s.stages {
		s.stages[i] = make([][]float64, clk.n)
	}
	return s
}

// add files one op under the window its due time falls in and returns that
// window (-1 for none). An op that failed has no latency: it only counts.
func (s *openLoopStats) add(due int64, ok bool, bytes int, lat, late time.Duration, stages ...time.Duration) int {
	s.ops++
	if !ok {
		s.bad++
	}
	w := s.clk.idxNs(due)
	if w < 0 {
		return w
	}
	s.windows[w].Ops++
	if !ok {
		s.windows[w].Failed++
		return w
	}
	s.windows[w].BytesIn += float64(bytes)
	s.windows[w].LatUs = append(s.windows[w].LatUs, us(lat))
	s.late[w] = append(s.late[w], us(late))
	for i, d := range stages {
		s.stages[i][w] = append(s.stages[i][w], us(d))
	}
	if lat <= sloLimit {
		s.slo[w]++
	}
	return w
}

// outcome renders the run: its windows, its counts, and the open-loop layer
// metrics (which need no tracing, so every run has them).
func (s *openLoopStats) outcome(blocksPerOp int) (outcome, summary) {
	o := outcome{Windows: s.windows, Attempted: s.ops, Failed: s.bad, Completed: s.ops - s.bad}
	o.Blocks = o.Completed * blocksPerOp
	sum := summarize(o.Windows)
	var sloOK []float64
	for w, n := range s.slo {
		if ops := s.windows[w].Ops; ops > 0 {
			sloOK = append(sloOK, float64(n)/float64(ops))
		}
	}
	o.Layer = map[string]float64{
		"load.late_p50_us":  medianOf(s.late, 0.5),
		"load.late_p99_us":  medianOf(s.late, 0.99),
		"load.slo_ok_share": median(sloOK),
	}
	stageSum := o.Layer["load.late_p50_us"]
	for i, name := range s.names {
		o.Layer[name] = medianOf(s.stages[i], 0.5)
		stageSum += o.Layer[name]
	}
	o.Layer["load.unattributed_us"] = sum.p50 - stageSum
	return o, sum
}

// medianOf returns the median over windows of each window's q-quantile.
func medianOf(perWindow [][]float64, q float64) float64 {
	var vs []float64
	for _, w := range perWindow {
		vs = append(vs, quantile(sorted(w), q))
	}
	return median(vs)
}

// checkLate refuses a run whose generator, not the system, set the latency.
func (s *openLoopStats) checkLate(sum summary) error {
	if late := medianOf(s.late, 0.5); late > 0.05*sum.p50 {
		return fmt.Errorf("invalid run: generator was late by %.1f us at the median, over 5%% of the op median %.1f us", late, sum.p50)
	}
	return nil
}

// pacedCollect files every request under the window its due time falls in.
func pacedCollect(loads []*pacedLoad, clk clock, tr *tracer) *openLoopStats {
	s := newOpenLoopStats(clk, "client.send_us_p50", "client.rtt_us_p50", "client.drain_us_p50")
	for ci, l := range loads {
		for i, r := range l.reqs {
			d := func(from, to int64) time.Duration { return time.Duration(to - from) }
			w := s.add(r.due, r.ok, 8*pacedReqWords, d(r.due, r.last), d(r.due, r.sendStart),
				d(r.sendStart, r.sendEnd), d(r.sendEnd, r.first), d(r.first, r.last))
			if tr != nil && r.ok && w == clk.n-1 {
				at := func(ns int64) time.Time { return clk.start.Add(time.Duration(ns)) }
				req := uint64(ci)<<32 | uint64(i)
				root := tr.add("request", req, -1, at(r.due), at(r.last))
				tr.add("load.late", req, root, at(r.due), at(r.sendStart))
				tr.add("client.Send", req, root, at(r.sendStart), at(r.sendEnd))
				tr.add("client.rtt", req, root, at(r.sendEnd), at(r.first))
				tr.add("client.RecvInto", req, root, at(r.first), at(r.last))
			}
		}
	}
	return s
}

const pacedRate = 400 // requests per second, over both connections

func servePaced(seed int64, p plan) serving {
	// The ring sends tenant "paced-a" to shard1 and "paced-c" to shard0.
	sv := serving{shape: defaultShape, shards: 2, gateway: true, tenants: []client.Options{
		{Tenant: "paced-a", Accel: "sha256"}, {Tenant: "paced-c", Accel: "sha256"},
	}}
	var viaGateway float64
	sv.drive = func(s *system, clk clock, tr *tracer) (outcome, error) {
		if err := s.fleet.keepAwake(); err != nil {
			return outcome{}, err
		}
		loads := pacedSchedule(seed, pacedRate, clk.total(), len(s.conns), sha256Ref)
		pacedDrive(s.conns, loads, clk)
		st := pacedCollect(loads, clk, tr)
		o, sum := st.outcome(pacedReqWords / s.conns[0].InWords())
		serverTiming(s.conns, o.Layer)
		viaGateway = sum.p50
		return o, st.checkLate(sum)
	}
	// The gateway's hop: the same schedule again, each connection dialling its
	// shard directly.
	sv.extra = func(o *outcome) error {
		s, err := sv.setupDirect()
		if err != nil {
			return err
		}
		if err := s.fleet.keepAwake(); err != nil {
			s.fleet.kill()
			return err
		}
		clk := clock{plan: plan{warm: p.warm, window: p.window, n: 1}, start: time.Now()}
		loads := pacedSchedule(seed, pacedRate, clk.total(), len(s.conns), sha256Ref)
		pacedDrive(s.conns, loads, clk)
		s.closeConns()
		_, _, err = s.fleet.stop()
		_, direct := pacedCollect(loads, clk, nil).outcome(0)
		o.Layer["gateway.hop_us_p50"] = viaGateway - direct.p50
		return err
	}
	return sv
}

// setupDirect is setup without the gateway: connection i dials shard i.
func (sv serving) setupDirect() (*system, error) {
	f, err := startFleet(sv.shape, sv.shards, false)
	if err != nil {
		return nil, err
	}
	s := &system{fleet: f}
	for i, opt := range sv.tenants {
		c, err := client.Connect(f.addrs[i%len(f.addrs)], opt)
		if err != nil {
			s.closeConns()
			f.kill()
			return nil, err
		}
		s.conns = append(s.conns, c)
	}
	return s, nil
}

// --- Open loop: one session per arrival (serve-churn) ------------------------

const (
	churnRate    = 200 // sessions per second
	churnWords   = 32  // words per session: 16 aes128 blocks
	churnWorkers = 2
)

// churnSession is one session's life, as offsets from the clock's start.
type churnSession struct {
	due, start, connected, sent, done int64
	ok                                bool
}

// churnLoad is the whole schedule; workers take sessions from it in due order.
type churnLoad struct {
	key      []byte
	sessions []churnSession
	in, want [][]cohort.Word
}

func churnSchedule(seed int64, total time.Duration) *churnLoad {
	rng := rand.New(rand.NewSource(seed))
	l := &churnLoad{key: make([]byte, 16)}
	rng.Read(l.key)
	for _, due := range poisson(rng, churnRate, total) {
		in := randWords(rng, churnWords)
		l.sessions = append(l.sessions, churnSession{due: int64(due)})
		l.in = append(l.in, in)
		l.want = append(l.want, aes128Ref(l.key, in))
	}
	return l
}

// churnOne runs session i against addr: Connect, one Send, CloseSend, read to
// Done, Close. A session that fails anywhere stays !ok.
func churnOne(addr string, l *churnLoad, i int, clk clock) {
	r := &l.sessions[i]
	r.start = int64(time.Since(clk.start))
	c, err := client.Connect(addr, client.Options{
		Tenant: fmt.Sprintf("churn-%d", i), Accel: "aes128", CSR: l.key, DialTimeout: grace,
	})
	if err != nil {
		return
	}
	defer c.Close()
	r.connected = int64(time.Since(clk.start))
	if c.Send(l.in[i]) != nil || c.CloseSend() != nil {
		return
	}
	r.sent = int64(time.Since(clk.start))
	watchdog := time.AfterFunc(grace, func() { c.Close() })
	defer watchdog.Stop()
	// One spare word, so that a session returning too much is caught.
	buf := make([]cohort.Word, churnWords+1)
	filled := 0
	for filled < len(buf) {
		n, err := c.RecvInto(buf[filled:])
		if err != nil {
			break // io.EOF after Done; anything else leaves Result nil
		}
		filled += n
	}
	r.done = int64(time.Since(clk.start))
	res := c.Result()
	r.ok = res != nil && res.Err == "" && res.Blocks == churnWords/2 &&
		filled == churnWords && slices.Equal(buf[:churnWords], l.want[i])
}

// churnDrive dispatches the schedule over churnWorkers goroutines.
func churnDrive(addr string, l *churnLoad, clk clock) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < churnWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(l.sessions) {
					return
				}
				waitUntil(clk.start.Add(time.Duration(l.sessions[i].due)))
				churnOne(addr, l, i, clk)
			}
		}()
	}
	wg.Wait()
}

func churnCollect(l *churnLoad, clk clock, tr *tracer) *openLoopStats {
	s := newOpenLoopStats(clk, "client.connect_us_p50", "client.send_us_p50", "client.done_us_p50")
	for i, r := range l.sessions {
		d := func(from, to int64) time.Duration { return time.Duration(to - from) }
		w := s.add(r.due, r.ok, 8*churnWords, d(r.due, r.done), d(r.due, r.start),
			d(r.start, r.connected), d(r.connected, r.sent), d(r.sent, r.done))
		if tr != nil && r.ok && w == clk.n-1 {
			at := func(ns int64) time.Time { return clk.start.Add(time.Duration(ns)) }
			root := tr.add("session", uint64(i), -1, at(r.due), at(r.done))
			tr.add("load.late", uint64(i), root, at(r.due), at(r.start))
			tr.add("client.Connect", uint64(i), root, at(r.start), at(r.connected))
			tr.add("client.Send+CloseSend", uint64(i), root, at(r.connected), at(r.sent))
			tr.add("client.RecvInto", uint64(i), root, at(r.sent), at(r.done))
		}
	}
	return s
}

func serveChurn(seed int64, p plan) serving {
	sv := serving{shape: defaultShape, shards: 2, gateway: true}
	var viaGateway float64
	sv.drive = func(s *system, clk clock, tr *tracer) (outcome, error) {
		if err := s.fleet.keepAwake(); err != nil {
			return outcome{}, err
		}
		l := churnSchedule(seed, clk.total())
		churnDrive(s.fleet.front, l, clk)
		st := churnCollect(l, clk, tr)
		o, sum := st.outcome(churnWords / 2)
		viaGateway = o.Layer["client.connect_us_p50"]
		return o, st.checkLate(sum)
	}
	// What the gateway adds to an Open (the same schedule dialling one shard
	// directly), and what Register and retire cost with no sockets at all.
	sv.extra = func(o *outcome) error {
		f, err := startFleet(sv.shape, 1, false)
		if err != nil {
			return err
		}
		if err := f.keepAwake(); err != nil {
			f.kill()
			return err
		}
		clk := clock{plan: plan{warm: p.warm, window: p.window, n: 1}, start: time.Now()}
		l := churnSchedule(seed, clk.total())
		churnDrive(f.front, l, clk)
		_, _, err = f.stop()
		direct, _ := churnCollect(l, clk, nil).outcome(0)
		o.Layer["gateway.open_us_p50"] = viaGateway - direct.Layer["client.connect_us_p50"]
		o.Layer["sched.register_us_p50"], o.Layer["sched.retire_us_p50"] = registerRetire(200)
		return err
	}
	return sv
}
