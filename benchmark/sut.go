//go:build linux

package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"cohort"
	"cohort/internal/cluster"
	"cohort/internal/sched"
)

// The system under test runs as children of this same binary, so that the
// load generator's garbage collection and spinning never share a process
// with the server, and so that the server's CPU is the children's rusage and
// its memory their peak resident set. A child says "READY {json}" on stdout once it serves,
// runs until its stdin closes (which also ends it if the parent dies), then
// says "STATS {json}" and exits.

// echo64 is the benchmark's own accelerator: 64 words in, the same 64 words
// out. It makes the transport the only work on serve-stream and the ladder.
type echo64 struct{ out [64]cohort.Word }

func (*echo64) Name() string           { return "echo64" }
func (*echo64) InWords() int           { return 64 }
func (*echo64) OutWords() int          { return 64 }
func (*echo64) Configure([]byte) error { return nil }
func (e *echo64) Process(in []cohort.Word) ([]cohort.Word, error) {
	copy(e.out[:], in)
	return e.out[:], nil
}

// catalog is what a shard serves: the paper's two accelerators and echo64.
func catalog() sched.Catalog {
	return sched.Catalog{
		"echo64": func() (cohort.Accelerator, error) { return &echo64{}, nil },
		"sha256": func() (cohort.Accelerator, error) { return cohort.NewSHA256(), nil },
		"aes128": func() (cohort.Accelerator, error) { return cohort.NewAES128(), nil },
	}
}

// shardConfig is a shard child's scheduler shape.
type shardConfig struct {
	Engines  int
	Quantum  int
	QueueCap int
}

func (c shardConfig) args() []string {
	return []string{"-role", "shard",
		"-engines", fmt.Sprint(c.Engines), "-quantum", fmt.Sprint(c.Quantum), "-queuecap", fmt.Sprint(c.QueueCap)}
}

type readyMsg struct {
	Addr string `json:"addr,omitempty"`
	HTTP string `json:"http,omitempty"`
}

// childStats is what a child says as it stops: its own peak resident set and,
// for a shard, its scheduler's counters.
type childStats struct {
	PeakRSSKiB int64  `json:"peak_rss_kib"`
	Decisions  uint64 `json:"decisions,omitempty"`
	Swaps      uint64 `json:"swaps,omitempty"`
}

// sayStats ends a child's conversation. The peak RSS is read here, from the
// child's own VmHWM, because the parent cannot: the ru_maxrss that wait4
// returns starts from the forking parent's peak (exec hands the old address
// space's high-water mark to the new process), so a generator that has grown
// past its server would be reported as the server.
func sayStats(st childStats) {
	status, _ := os.ReadFile("/proc/self/status")
	if _, rest, ok := strings.Cut(string(status), "VmHWM:"); ok {
		fmt.Sscan(rest, &st.PeakRSSKiB)
	}
	say("STATS", st)
}

// say prints one tagged JSON line for the parent.
func say(tag string, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s %s\n", tag, b)
}

// awaitParent blocks until the parent closes this child's stdin.
func awaitParent() { io.Copy(io.Discard, os.Stdin) }

// roleShard serves one scheduler over the wire protocol on loopback, plus the
// /healthz the gateway's catalog probes.
func roleShard(cfg shardConfig) {
	sch := sched.New(sched.Config{
		Engines: cfg.Engines, Quantum: cfg.Quantum, QueueCap: cfg.QueueCap, MaxSessions: 1024,
	})
	srv := sched.NewServer(sch, catalog())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fatal(err)
	}
	hln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fatal(err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		io.WriteString(w, `{"status":"ok"}`)
	})
	go http.Serve(hln, mux)
	go srv.Serve(ln)
	say("READY", readyMsg{Addr: ln.Addr().String(), HTTP: hln.Addr().String()})
	awaitParent()
	st := sch.Stats()
	srv.Close()
	sch.Close()
	hln.Close()
	sayStats(childStats{Decisions: st.Decisions, Swaps: st.Swaps})
}

// roleGateway fronts the shards named in spec ("name=wire@http,...") with the
// routing gateway.
func roleGateway(spec string) {
	var members []cluster.Shard
	for _, s := range strings.Split(spec, ",") {
		name, rest, ok1 := strings.Cut(s, "=")
		wire, httpAddr, ok2 := strings.Cut(rest, "@")
		if !ok1 || !ok2 {
			fatal(fmt.Errorf("bad -shards entry %q", s))
		}
		members = append(members, cluster.Shard{Name: name, Addr: wire, HTTP: httpAddr})
	}
	cat, err := cluster.NewCatalog(cluster.CatalogConfig{Shards: members})
	if err != nil {
		fatal(err)
	}
	cat.Start() // probes every shard once before returning
	gw, err := cluster.NewGateway(cluster.GatewayConfig{Catalog: cat})
	if err != nil {
		fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fatal(err)
	}
	go gw.Serve(ln)
	say("READY", readyMsg{Addr: ln.Addr().String()})
	awaitParent()
	gw.Close()
	cat.Stop()
	sayStats(childStats{})
}

// roleIdler keeps every CPU from going idle: one thread per CPU, pinned, in
// the SCHED_IDLE class, spinning. Anything else that wants the CPU preempts
// it at once, so it takes nothing from the system under test; but a virtual
// CPU that never halts is never descheduled by the host, and that is where
// an open-loop workload's run-to-run noise came from on the VM this was
// written on: each request crosses five thread wake-ups, and the cost of
// waking a halted vCPU varied by half with what the host had just been doing
// (serve-churn's median: 870-1180 us without idlers, 630-690 us with).
func roleIdler() {
	// The CPUs this process may run on: in a cpuset they need not start at 0.
	var allowed [16]uint64
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(allowed), uintptr(unsafe.Pointer(&allowed))); e != 0 {
		fatal(fmt.Errorf("idler: sched_getaffinity: %w", e))
	}
	var cpus []int
	for cpu := 0; cpu < 64*len(allowed); cpu++ {
		if allowed[cpu/64]&(1<<(cpu%64)) != 0 {
			cpus = append(cpus, cpu)
		}
	}
	runtime.GOMAXPROCS(len(cpus) + 1) // the spinners hold a P each
	var stop atomic.Bool
	spinning := make(chan error)
	for _, cpu := range cpus {
		go func() {
			runtime.LockOSThread()
			var mask [16]uint64
			mask[cpu/64] = 1 << (cpu % 64)
			param := int32(0) // struct sched_param{sched_priority}
			const schedIdle = 5
			if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); e != 0 {
				spinning <- fmt.Errorf("idler: sched_setaffinity to cpu %d: %w", cpu, e)
				return
			}
			if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&param))); e != 0 {
				spinning <- fmt.Errorf("idler: sched_setscheduler(SCHED_IDLE): %w", e)
				return // a spinner at normal priority would be a competitor
			}
			spinning <- nil
			for !stop.Load() {
			}
		}()
	}
	// A run without idlers is slower by a quarter or more, and nothing in its
	// result would say why: no READY unless every CPU has its spinner, so the
	// run fails instead.
	for range cpus {
		if err := <-spinning; err != nil {
			fatal(err)
		}
	}
	say("READY", readyMsg{})
	awaitParent()
	stop.Store(true)
	sayStats(childStats{})
}

// proc is one running child.
type proc struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
	out   *bufio.Reader
}

// spawn starts a child of this binary with args and waits for its READY.
func spawn(ready any, args ...string) (*proc, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	p := &proc{cmd: cmd, stdin: stdin, out: bufio.NewReader(stdout)}
	if err := p.expect("READY", ready); err != nil {
		p.kill()
		return nil, fmt.Errorf("child %v: %w", args, err)
	}
	return p, nil
}

// expect reads the child's next line, which must carry tag, into v.
func (p *proc) expect(tag string, v any) error {
	line, err := p.out.ReadString('\n')
	if err != nil {
		return fmt.Errorf("awaiting %s: %w", tag, err)
	}
	body, ok := strings.CutPrefix(line, tag+" ")
	if !ok {
		return fmt.Errorf("awaiting %s: got %q", tag, line)
	}
	return json.Unmarshal([]byte(body), v)
}

// usage is what finished children cost.
type usage struct {
	cpu    time.Duration // user + system, summed
	rssMiB float64       // the largest peak resident set
}

func (u *usage) add(v usage) {
	u.cpu += v.cpu
	u.rssMiB = max(u.rssMiB, v.rssMiB)
}

// stop ends the child by closing its stdin, reads its STATS, and returns
// them with its CPU time (from wait4) and peak RSS.
func (p *proc) stop() (usage, childStats, error) {
	p.stdin.Close()
	var st childStats
	err := p.expect("STATS", &st)
	if werr := p.cmd.Wait(); err == nil {
		err = werr
	}
	ps := p.cmd.ProcessState
	return usage{cpu: ps.UserTime() + ps.SystemTime(), rssMiB: float64(st.PeakRSSKiB) / 1024}, st, err
}

func (p *proc) kill() {
	p.stdin.Close()
	p.cmd.Process.Kill()
	p.cmd.Wait()
}

// fleet is one serving system under test: shards, and a gateway when asked.
type fleet struct {
	shards  []*proc
	addrs   []string // shard wire addresses
	gateway *proc
	idler   *proc
	front   string // where clients dial: the gateway, or the only shard
}

// startFleet spawns n shards of the given shape and, if gateway, a gateway
// over them. It returns once every child serves.
func startFleet(cfg shardConfig, n int, gateway bool) (*fleet, error) {
	f := &fleet{}
	var spec []string
	for i := 0; i < n; i++ {
		var r readyMsg
		p, err := spawn(&r, cfg.args()...)
		if err != nil {
			f.kill()
			return nil, err
		}
		f.shards = append(f.shards, p)
		f.addrs = append(f.addrs, r.Addr)
		spec = append(spec, fmt.Sprintf("shard%d=%s@%s", i, r.Addr, r.HTTP))
	}
	f.front = f.addrs[0]
	if gateway {
		var r readyMsg
		p, err := spawn(&r, "-role", "gateway", "-shards", strings.Join(spec, ","))
		if err != nil {
			f.kill()
			return nil, err
		}
		f.gateway, f.front = p, r.Addr
	}
	return f, nil
}

// keepAwake starts the fleet's idler (see roleIdler); open-loop workloads do.
func (f *fleet) keepAwake() error {
	p, err := spawn(&readyMsg{}, "-role", "idler")
	f.idler = p
	return err
}

// stop ends every child, gateway first, and returns their summed CPU, their
// largest peak RSS, and the shards' summed scheduler counters.
func (f *fleet) stop() (usage, childStats, error) {
	var u usage
	var total childStats
	var errs []error
	if f.idler != nil {
		_, _, err := f.idler.stop() // its CPU is not the system's
		errs = append(errs, err)
	}
	procs := f.shards
	if f.gateway != nil {
		procs = append([]*proc{f.gateway}, procs...)
	}
	for _, p := range procs {
		pu, st, err := p.stop()
		u.add(pu)
		errs = append(errs, err)
		total.Decisions += st.Decisions
		total.Swaps += st.Swaps
	}
	return u, total, errors.Join(errs...)
}

func (f *fleet) kill() {
	if f.idler != nil {
		f.idler.kill()
	}
	if f.gateway != nil {
		f.gateway.kill()
	}
	for _, p := range f.shards {
		p.kill()
	}
}
