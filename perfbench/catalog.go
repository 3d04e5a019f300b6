package main

// metric describes one reported number: its unit, whether lower or
// higher is better, the layer (module) it measures, and what it is
// expected to move. BENCHMARK.json at the repository root lists the same
// names, units and directions (the smoke test checks that they agree)
// and adds the regression bound of each end-to-end metric.
//
// All times are host times on the machine named in the run's host stamp.
// Simulated cycle counts are results of a model that has not been
// validated against hardware, so no metric here claims hardware accuracy.
type metric struct {
	name, unit, better string
	layer              string
	moves              string
}

// endToEnd are the metrics a user of the system sees, reported by
// untraced runs of every workload. Their times are net of hypervisor
// steal (see iteration.discountSteal).
var endToEnd = []metric{
	{"wall_s", "s", "lower", "e2e",
		"host seconds from end of set-up to a verified result: one quick suite pass, or run + checkpoints + failover + audit of one cluster"},
	{"setup_s", "s", "lower", "e2e",
		"clusters: cluster.New plus the preload; paper-quick: launch of the benchmark binary until the suite is ready to run (5 probe launches after each repetition)"},
	{"ops_per_s", "1/s", "higher", "e2e",
		"clusters: run-phase operations per host second; paper-quick: experiments per host second"},
	{"round_p50_us", "us", "lower", "e2e",
		"median host time of one lockstep round (Step plus any checkpoint after it); paper-quick: of one Experiment.Run (per repetition, then the median over repetitions; not steal-corrected)"},
	{"peak_rss_mb", "MB", "lower", "e2e",
		"peak resident memory of the benchmark process over the timed repetitions (the largest per-repetition peak)"},
}

// quickIDs are the bench.All() experiment IDs, in paper order; each
// gets a per-layer bench.<id>_s metric. The smoke test checks the list
// against bench.All().
var quickIDs = []string{
	"table1", "datarace", "table2", "table3", "table4", "table5", "table6", "fig3",
	"table7", "table8", "table9", "table10", "fig4",
	"ablate-sig", "ablate-count", "ablate-tick", "ablate-fletcher", "ablate-latency",
}

// perLayer are the traced run's metrics. Every workload reports every
// one; a layer a workload does not reach (or cannot observe from outside
// the program) reads 0.
var perLayer = func() []metric {
	var ms []metric
	for _, id := range quickIDs {
		ms = append(ms, metric{"bench." + id + "_s", "s", "lower", "bench",
			"wall_s on paper-quick (Experiment.Run host time; 0 on cluster workloads)"})
	}
	return append(ms, []metric{
		{"exp.cpu_util", "ratio", "higher", "exp",
			"wall_s on paper-quick when pool imbalance is fixed (process CPU / (wall x 2 workers); clusters: the 2 shard workers)"},
		{"runtime.alloc_mb", "MB", "lower", "runtime",
			"wall_s on paper-quick; round_p99_us on cluster workloads (bytes allocated per iteration)"},
		{"runtime.gc_cycles", "count", "lower", "runtime",
			"wall_s on paper-quick; round_p99_us on cluster workloads (GC cycles per iteration)"},
		{"runtime.gc_pause_ms", "ms", "lower", "runtime",
			"round_p99_us on cluster workloads (stop-the-world pause per iteration)"},
		{"machine.instr", "count", "lower", "machine",
			"deterministic run-phase instruction count on all shard cores; moves only when simulated behaviour changes (0 on paper-quick: not observable through bench)"},
		{"machine.ns_per_instr", "ns", "lower", "machine",
			"round_p50_us, ops_per_s on cluster-read (HostProfile.RunNS / run-phase instructions)"},
		{"machine.sb_hit", "ratio", "higher", "machine",
			"round_p50_us on cluster-read (SuperblockStats().HitRate over the run phase)"},
		{"machine.ff_frac", "ratio", "higher", "machine",
			"round_p50_us on cluster-read (fast-forwarded machine cycles / machine cycles advanced)"},
		{"machine.arena_mb", "MB", "lower", "machine",
			"setup_s and peak_rss_mb on cluster workloads (simulated RAM of all shard nodes)"},
		{"sim_minstr_per_s", "Minstr/s", "higher", "machine",
			"ops_per_s on cluster-read (simulated instructions retired per host second of wall_s)"},
		{"core.syncs_per_op", "count", "lower", "core",
			"round_p50_us on cluster-read only when simulated behaviour changes (deterministic; host-only changes leave it identical)"},
		{"core.votes_per_op", "count", "lower", "core",
			"round_p50_us on cluster-read only when simulated behaviour changes (deterministic; host-only changes leave it identical)"},
		{"cluster.generate_ns_per_op", "ns", "lower", "cluster",
			"ops_per_s on cluster-read, by at most the router's share"},
		{"cluster.fill_ns_per_op", "ns", "lower", "cluster",
			"ops_per_s on cluster-read, by at most the router's share"},
		{"cluster.drain_ns_per_op", "ns", "lower", "cluster",
			"ops_per_s on cluster-read, by at most the router's share"},
		{"cluster.run_ns_per_round", "ns", "lower", "cluster",
			"round_p50_us on cluster-read (node execution per round)"},
		{"cluster.router_share", "ratio", "lower", "cluster",
			"bounds what router work can give ops_per_s on cluster-read"},
		{"cluster.rounds_per_op", "count", "lower", "cluster",
			"deterministic; ops_per_s moves with it only when simulated behaviour changes"},
		{"cluster.audit_s", "s", "lower", "cluster",
			"wall_s on both cluster workloads (VerifyAcked)"},
		{"cluster.failover_ms", "ms", "lower", "cluster",
			"wall_s on cluster-write-ckpt (Failover; 0 elsewhere)"},
		{"snapshot.saves", "count", "lower", "snapshot",
			"deterministic checkpoint count on cluster-write-ckpt (0 elsewhere: the no-change control)"},
		{"snapshot.save_ms_p50", "ms", "lower", "snapshot",
			"wall_s, ops_per_s on cluster-write-ckpt"},
		{"snapshot.save_ms_max", "ms", "lower", "snapshot",
			"round_p99_us on cluster-write-ckpt"},
		{"snapshot.bytes", "B", "lower", "snapshot",
			"wall_s on cluster-write-ckpt (size of one shard checkpoint)"},
		{"snapshot.save_mb_per_s", "MB/s", "higher", "snapshot",
			"wall_s, ops_per_s on cluster-write-ckpt"},
		{"snapshot.ckpt_share", "ratio", "lower", "snapshot",
			"wall_s on cluster-write-ckpt (checkpoint time / wall)"},
		{"round_p99_us", "us", "lower", "e2e",
			"99th percentile of the round_p50_us samples of a traced repetition (clusters: ~1.8x10^4 rounds, so ~185 beyond it; paper-quick: 18, so close to the slowest experiment). Per-layer because hypervisor steal arrives in millisecond slices that lengthen ~1% of rounds during busy periods on a shared host"},
		{"fail_frac", "ratio", "lower", "e2e",
			"failed share of attempts (also in the result's failed/attempted); any nonzero value fails the run"},
		{"trace.overhead_s", "s", "lower", "trace",
			"traced minus untraced wall_s within the traced run"},
		{"trace.untraced_wall_s", "s", "lower", "trace",
			"the traced run's untraced iterations: the wall_s the spans are compared with"},
		{"trace.top_spans_s", "s", "lower", "trace",
			"sum of the top-level spans after set-up in a traced iteration; accounts for wall_s within trace.overhead_s"},
	}...)
}()
