package cluster

import (
	"runtime"
	"testing"
	"time"

	"rcoe/internal/core"
	"rcoe/internal/stats"
	"rcoe/internal/workload"
)

// Round-throughput benchmarks and the million-key scale proof.
//
// The cluster's host cost per lockstep round splits into node
// execution (the chunk each shard's replicated machine simulates) and
// router overhead (generate/fill/drain on the coordinator). The
// benchmarks here record rounds/sec and the 1-vs-N-worker host speedup
// on an 8-shard fleet; the million-key test checks that with Records
// at production scale the router side stays a bounded sliver (<10%) of
// round wall-clock. Simulated results are identical at every worker
// count — only host time moves.

// scaleOptions is the 8-shard fleet the scale suite runs: unreplicated
// nodes (base mode keeps wall-clock about per-record work, not
// redundancy) serving YCSB-B.
func scaleOptions(records, operations uint64) Options {
	opts := Options{
		Shards: 8,
		System: core.Config{Mode: core.ModeNone, Replicas: 1, TickCycles: 50_000},
		// A scale fleet runs a longer lockstep chunk than the default
		// 2k cycles: the round barrier (generate/fill/drain on the
		// coordinator) is paid once per round, so chunk length is the
		// amortization lever for router overhead.
		ChunkCycles: 20_000,
		Workload:    workload.YCSBB,
		Records:     records,
		Operations:  operations,
		Seed:        11,
	}
	opts.Slots = scaleSlots(opts)
	return opts
}

// scaleSlots sizes the per-shard hash table from the actual ring
// partition instead of the conservative whole-keyspace default: at a
// million records the default would be a ~600 MiB table per shard,
// while the ring places only ~1/Shards of the keys (plus imbalance) on
// each. Twice the most-loaded shard's key count keeps the linear-probe
// load factor under one half.
func scaleSlots(opts Options) uint64 {
	ring := NewRingFromShards(opts.Shards, opts.VNodes)
	counts := make([]uint64, opts.Shards)
	for i := uint64(0); i < opts.Records; i++ {
		if id, ok := ring.Lookup(workload.Key(i)); ok {
			counts[id]++
		}
	}
	var maxCount uint64
	for _, n := range counts {
		if n > maxCount {
			maxCount = n
		}
	}
	return nextPow2(maxCount*2 + 64)
}

// dmrFleetOptions is the replicated 8-shard fleet (LC-DMR per shard)
// the round benchmarks use — the paper's configuration at cluster
// scale, with enough queued operations that generation never dries up
// mid-measurement.
func dmrFleetOptions() Options {
	return Options{
		Shards:     8,
		System:     core.Config{Mode: core.ModeLC, Replicas: 2, TickCycles: 50_000},
		Workload:   workload.YCSBB,
		Records:    64,
		Operations: 1 << 40,
		Seed:       11,
	}
}

// steadyCluster builds the fleet and serves until the preload is done,
// so measured rounds are steady-state serving rounds.
func steadyCluster(tb testing.TB, opts Options) *Cluster {
	tb.Helper()
	c, err := New(opts)
	if err != nil {
		tb.Fatal(err)
	}
	for !c.LoadPhaseDone() {
		c.Step()
	}
	return c
}

// BenchmarkClusterRound measures steady-state lockstep rounds per
// second on the 8-shard LC-DMR fleet at the default worker count.
func BenchmarkClusterRound(b *testing.B) {
	c := steadyCluster(b, dmrFleetOptions())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Step()
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "rounds/s")
	b.ReportMetric(c.HostProfile().RouterShare()*100, "router-%")
}

// BenchmarkClusterRoundSpeedup measures steady-state rounds/sec on the
// 8-shard fleet serially (ShardWorkers=1) and with the host pool
// (ShardWorkers=0 — all cores), each over a fixed 2 s window per
// iteration, alternating which mode goes first. It reports the medians
// over b.N iterations and the host's core count:
//
//	go test ./internal/cluster -run '^$' -bench ClusterRoundSpeedup -benchtime 5x
//
// The run phase is embarrassingly parallel (8 independent nodes per
// round), so on an 8-core host the speedup approaches the core count;
// on a single-core host it records ~1x. EXPERIMENTS.md records the
// measured number. Artifacts are byte-identical either way.
func BenchmarkClusterRoundSpeedup(b *testing.B) {
	const window = 2 * time.Second
	fleet := func(workers int) *Cluster {
		opts := dmrFleetOptions()
		opts.ShardWorkers = workers
		return steadyCluster(b, opts)
	}
	serial, parallel := fleet(1), fleet(0)
	b.ResetTimer()
	rate := func(c *Cluster) float64 {
		rounds, start := 0, time.Now()
		for time.Since(start) < window {
			c.Step()
			rounds++
		}
		return float64(rounds) / time.Since(start).Seconds()
	}
	var serialRate, parallelRate, speedup stats.Sample
	for i := 0; i < b.N; i++ {
		var s, p float64
		if i%2 == 0 {
			s = rate(serial)
			p = rate(parallel)
		} else {
			p = rate(parallel)
			s = rate(serial)
		}
		serialRate.Add(s)
		parallelRate.Add(p)
		speedup.Add(p / s)
	}
	b.ReportMetric(speedup.Median(), "speedup")
	b.ReportMetric(serialRate.Median(), "serial-rounds/s")
	b.ReportMetric(parallelRate.Median(), "rounds/s")
	b.ReportMetric(float64(runtime.NumCPU()), "cpus")
}

// BenchmarkClusterMillionKey is the million-key scale configuration:
// one million records preloaded through the ring onto 8 shards, then a
// serving phase, with the router-share of round wall-clock reported.
// Run it explicitly (it preloads a million records through the
// simulated nodes, minutes of host time):
//
//	go test ./internal/cluster -bench ClusterMillionKey -benchtime 1x
func BenchmarkClusterMillionKey(b *testing.B) {
	for i := 0; i < b.N; i++ {
		opts := scaleOptions(1_000_000, 2_000)
		c, err := New(opts)
		if err != nil {
			b.Fatal(err)
		}
		res, err := c.Run()
		if err != nil {
			b.Fatal(err)
		}
		if res.Ops != opts.Operations || res.Errors != 0 || res.Corruptions != 0 {
			b.Fatalf("ops=%d errors=%d corrupt=%d", res.Ops, res.Errors, res.Corruptions)
		}
		prof := c.HostProfile()
		b.ReportMetric(float64(prof.Rounds)/b.Elapsed().Seconds(), "rounds/s")
		b.ReportMetric(prof.RouterShare()*100, "router-%")
		b.ReportMetric(float64(opts.Slots), "slots/shard")
	}
}

// TestClusterMillionKeyScale is the scale smoke: a scaled-down (but
// still 10^5-key) version of the million-key configuration must
// complete cleanly with the router side under 10% of round wall-clock,
// pinning that per-round router cost is bounded by the serving windows
// — not by Records. -short scales the keyspace down further for CI.
func TestClusterMillionKeyScale(t *testing.T) {
	records := uint64(100_000)
	if testing.Short() {
		records = 25_000
	}
	opts := scaleOptions(records, 400)
	c, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops != opts.Operations || res.Errors != 0 || res.Corruptions != 0 {
		t.Fatalf("ops=%d errors=%d corrupt=%d", res.Ops, res.Errors, res.Corruptions)
	}
	prof := c.HostProfile()
	if prof.Rounds == 0 {
		t.Fatal("no rounds profiled")
	}
	if share := prof.RouterShare(); share >= 0.10 {
		t.Fatalf("router share %.1f%% of round wall-clock, want < 10%%", share*100)
	}
}
