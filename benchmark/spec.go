//go:build linux

package main

// This file is the benchmark's vocabulary: the six workloads and every metric
// it prints. BENCHMARK.json at the repository root lists exactly these names,
// units, directions and bounds; TestSpecMatchesBenchmarkJSON keeps the two in
// step, so a metric cannot be printed without being declared or the reverse.

// workloadDef names one workload, records why it exists, and says what its
// op is: the unit of work behind op_p50_us, op_p75_us and cpu_us_per_op.
type workloadDef struct {
	Name string
	Why  string
	Op   string
}

var workloads = []workloadDef{
	{"native-chain", "in-process AES-128->SHA-256 chain over Fifo pairs at saturation: accel, engine and fifo do all the work, wire/sched/gateway none",
		"512-word push (4 KiB in, 2 KiB out)"},
	{"serve-stream", "2 tenants stream 32 KiB echo64 frames to one shard: transport-bound, so wire, client and the sched handoff do the work and accel none",
		"64-block echo64 Send (32 KiB) until its last word is back"},
	{"serve-compute", "2 sha256 tenants weighted 2:1 saturate a 1-engine shard: accel and stride arbitration do the work, wire carries little",
		"64-block sha256 Send (4 KiB) until its last digest word is back"},
	{"serve-paced", "open-loop Poisson 400 req/s of 64-word sha256 requests through gateway to 2 shards: per-frame and wake-up cost dominate, not compute",
		"64-word sha256 request, from its due time to its 32nd output word"},
	{"serve-churn", "open-loop Poisson 200 sessions/s of Connect->32 words->Done through gateway: admission, Open/Done and retire cost instead of data movement",
		"session, from its due time to Done"},
	{"sim-paper", "the paper's Table 2 grid on the cycle-level simulator, verified: only the simulator works; simulated statistics repeat exactly",
		"1000 simulated cycles, in host time (one latency sample per grid point)"},
}

// metricDef declares one metric. Higher says which direction is better;
// Bound is the share of the parent's median by which an end-to-end metric may
// worsen (per-layer metrics carry none).
type metricDef struct {
	Name   string
	Unit   string
	Higher bool
	Bound  float64
}

// endToEnd is what a user of the stack sees. Every workload reports every
// one of them; "op" is the workload's unit of work (workloadDef.Op).
var endToEnd = []metricDef{
	{"setup_s", "s", false, 0.25},
	{"goodput_mib_s", "MiB/s", true, 0.25},
	{"op_p50_us", "us", false, 0.25},
	{"op_p75_us", "us", false, 0.25},
	{"cpu_us_per_op", "us", false, 0.25},
	{"peak_rss_mib", "MiB", false, 0.10},
}

// perLayer is measured in the traced run only. A metric a workload does not
// exercise reads 0 in that workload's traced run.
var perLayer = []metricDef{
	// host: normalisers, measured with no repository code.
	{"host.nproc", "count", true, 0},
	{"host.memcpy_mib_s", "MiB/s", true, 0},
	{"host.loopback_rtt_us", "us", false, 0},
	{"host.sleep_overshoot_us", "us", false, 0},
	// load: validity of the run itself, and the demoted end-to-end metrics.
	{"load.samples", "count", true, 0},
	{"load.late_p50_us", "us", false, 0},
	{"load.late_p99_us", "us", false, 0},
	{"load.unattributed_us", "us", false, 0},
	{"load.tracing_overhead_share", "share", false, 0},
	{"load.op_p90_us", "us", false, 0},
	{"load.op_p99_us", "us", false, 0},
	{"load.slo_ok_share", "share", true, 0},
	// ladder: one payload through successively more of the stack.
	{"fifo.mib_s", "MiB/s", true, 0},
	{"fifo.ns_per_block", "ns", false, 0},
	{"engine.mib_s", "MiB/s", true, 0},
	{"engine.self_ns_per_block", "ns", false, 0},
	{"sched.mib_s", "MiB/s", true, 0},
	{"sched.self_ns_per_block", "ns", false, 0},
	{"wire.mib_s", "MiB/s", true, 0},
	{"wire.self_ns_per_block", "ns", false, 0},
	{"gateway.mib_s", "MiB/s", true, 0},
	{"gateway.self_ns_per_block", "ns", false, 0},
	// accel: timed Process loops.
	{"accel.echo64_ns_per_block", "ns", false, 0},
	{"accel.sha256_ns_per_block", "ns", false, 0},
	{"accel.aes128_ns_per_block", "ns", false, 0},
	// fifo/engine counters on native-chain.
	{"fifo.push_stalls_per_kblock", "1/kblock", false, 0},
	{"fifo.pop_stalls_per_kblock", "1/kblock", false, 0},
	{"engine.words_per_wakeup", "words", true, 0},
	{"engine.backoff_sleeps_per_s", "1/s", false, 0},
	// sched: arbitration, admission and the server-reported stage means.
	{"sched.blocks_per_decision", "blocks", true, 0},
	{"sched.swaps_per_kblock", "1/kblock", false, 0},
	{"sched.tenant_share_min", "share", true, 0},
	{"sched.register_us_p50", "us", false, 0},
	{"sched.retire_us_p50", "us", false, 0},
	{"sched.queue_us_mean", "us", false, 0},
	{"sched.dispatch_us_mean", "us", false, 0},
	{"sched.compute_us_mean", "us", false, 0},
	{"sched.egress_us_mean", "us", false, 0},
	// wire: codec cost and small frames.
	{"wire.encode_ns_per_frame", "ns", false, 0},
	{"wire.decode_ns_per_frame", "ns", false, 0},
	{"wire.small_frame_mib_s", "MiB/s", true, 0},
	// client: the closed sum of one request or session.
	{"client.send_us_p50", "us", false, 0},
	{"client.rtt_us_p50", "us", false, 0},
	{"client.drain_us_p50", "us", false, 0},
	{"client.connect_us_p50", "us", false, 0},
	{"client.done_us_p50", "us", false, 0},
	// gateway: what the extra hop costs.
	{"gateway.hop_us_p50", "us", false, 0},
	{"gateway.open_us_p50", "us", false, 0},
	// sim: simulated statistics (exact) and the simulator's own speed (host).
	{"sim.kcycles_sha_cohort", "kcycles", false, 0},
	{"sim.kcycles_sha_mmio", "kcycles", false, 0},
	{"sim.kcycles_sha_dma", "kcycles", false, 0},
	{"sim.kcycles_aes_cohort", "kcycles", false, 0},
	{"sim.kcycles_aes_mmio", "kcycles", false, 0},
	{"sim.kcycles_aes_dma", "kcycles", false, 0},
	{"sim.noc_flits", "count", false, 0},
	{"sim.noc_hops", "count", false, 0},
	{"sim.dir_inv_sent", "count", false, 0},
	{"sim.engine_inv_wakeups", "count", false, 0},
	{"sim.engine_ptr_updates", "count", false, 0},
	{"sim.core_cache_misses", "count", false, 0},
	{"sim.stats_crc32", "crc32", true, 0},
	{"sim.ref_err", "share", false, 0},
	{"sim.mcycles_per_host_s", "Mcycles/s", true, 0},
	{"sim.host_ms_cohort", "ms", false, 0},
	{"sim.host_ms_mmio", "ms", false, 0},
	{"sim.host_ms_dma", "ms", false, 0},
}

func findWorkload(name string) bool {
	for _, w := range workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}
