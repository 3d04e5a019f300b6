package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"rcoe/internal/cluster"
	"rcoe/internal/core"
	"rcoe/internal/harness"
	"rcoe/internal/snapshot"
	"rcoe/internal/workload"
)

// clusterWorkload drives a sharded LC-DMR cluster through its public
// round API: build and preload, serve a closed-loop YCSB run (one
// client stream per shard, window 8), optionally checkpointing and
// failing over a shard on the way, then audit every acknowledged write.
type clusterWorkload struct {
	opts cluster.Options
	// ckptEvery checkpoints every live shard after every ckptEvery-th
	// round of the run phase, in shard-ID order — the sequence
	// Options.CheckpointRounds performs inside Step. 0 disables.
	ckptEvery uint64
	// failover replaces shard victim once half the operations are done.
	failover bool
	victim   int
}

// clusterSize is the shape of a cluster workload.
type clusterSize struct {
	records, operations, ckptEvery uint64
}

// fullCluster is the benchmark's size: ~20k records, ~60k operations
// (about 2.4x10^4 rounds), a checkpoint every 1000 rounds.
var fullCluster = clusterSize{records: 20_000, operations: 60_000, ckptEvery: 1000}

func newCluster(name string, seed uint64, size clusterSize) (*clusterWorkload, error) {
	w := &clusterWorkload{opts: cluster.Options{
		Shards:       4,
		System:       core.Config{Mode: core.ModeLC, Replicas: 2, TickCycles: 50_000},
		Records:      size.records,
		Operations:   size.operations,
		Window:       8,
		Seed:         seed,
		ShardWorkers: 2,
	}}
	switch name {
	case "cluster-read":
		w.opts.Workload = workload.YCSBB
	case "cluster-write-ckpt":
		w.opts.Workload = workload.YCSBA
		w.ckptEvery = size.ckptEvery
		w.failover = true
		w.victim = int(seed % uint64(w.opts.Shards))
	default:
		return nil, fmt.Errorf("unknown cluster workload %q", name)
	}
	return w, nil
}

// stallRounds is how many rounds may pass without a completed operation
// before an iteration is declared stalled.
const stallRounds = 20_000

// simCounters are one node's cumulative simulation counters.
type simCounters struct {
	instr, blockInstrs, syncs, votes, ffCycles, cycles uint64
}

func readCounters(n *harness.Node) simCounters {
	m := n.Sys().Machine()
	sb := m.SuperblockStats()
	st := n.Stats()
	return simCounters{
		instr: sb.Instrs, blockInstrs: sb.BlockInstrs,
		syncs: st.Syncs, votes: st.Votes,
		ffCycles: m.FastForwarded(), cycles: m.Now(),
	}
}

func (a *simCounters) addDelta(now, base simCounters) {
	a.instr += now.instr - base.instr
	a.blockInstrs += now.blockInstrs - base.blockInstrs
	a.syncs += now.syncs - base.syncs
	a.votes += now.votes - base.votes
	a.ffCycles += now.ffCycles - base.ffCycles
	a.cycles += now.cycles - base.cycles
}

// runCounters accumulates run-phase work across node incarnations. A
// failover swaps in a node whose counters restart (or resume from the
// checkpoint), so the victim's work is banked just before the call and
// the replacement is measured from just after it.
type runCounters struct {
	base []simCounters
	acc  simCounters
}

func startCounters(c *cluster.Cluster, shards int) *runCounters {
	r := &runCounters{base: make([]simCounters, shards)}
	for id := range r.base {
		r.base[id] = readCounters(c.Node(id))
	}
	return r
}

func (r *runCounters) bank(c *cluster.Cluster, id int) {
	r.acc.addDelta(readCounters(c.Node(id)), r.base[id])
}

func (r *runCounters) rebase(c *cluster.Cluster, id int) {
	r.base[id] = readCounters(c.Node(id))
}

func (r *runCounters) finish(c *cluster.Cluster) simCounters {
	for id := range r.base {
		r.bank(c, id)
	}
	return r.acc
}

// maxPreloadRounds bounds the preload; a cluster that has not finished
// it by then has stalled.
const maxPreloadRounds = 200_000

// preload steps the cluster until every preloaded record is acked.
func preload(c *cluster.Cluster, tr *tracer) error {
	for !c.LoadPhaseDone() {
		if c.Rounds() >= maxPreloadRounds {
			return fmt.Errorf("preload not done after %d rounds", maxPreloadRounds)
		}
		sp := tr.begin("cluster.Step")
		c.Step()
		tr.end(sp)
	}
	return nil
}

// iterate builds, preloads, runs, audits and checks one cluster.
func (w *clusterWorkload) iterate(tr *tracer) iteration {
	it := iteration{layer: map[string]float64{}, attempted: w.opts.Operations}
	mark := tr.mark()

	t0 := time.Now()
	top := tr.begin("setup")
	sp := tr.begin("cluster.New")
	c, err := cluster.New(w.opts)
	tr.end(sp)
	if err == nil {
		err = preload(c, tr)
	}
	tr.end(top)
	it.setup = time.Since(t0)
	if err != nil {
		it.failed, it.err = it.attempted, fmt.Errorf("set-up: %w", err)
		return it
	}

	shards := w.opts.Shards
	sp = tr.begin("counters")
	prof0 := c.HostProfile()
	counters := startCounters(c, shards)
	tr.end(sp)
	cpu0 := processCPU()
	tRun := time.Now()
	runMark := tr.mark()
	top = tr.begin("run")
	it.steps = make([]time.Duration, 0, 3*w.opts.Operations/(uint64(shards)*2))
	failAt, failedOver := w.opts.Operations/2, !w.failover
	last, idle := c.OpsDone(), 0
	for err == nil && !c.Done() {
		r0 := time.Now()
		sp := tr.begin("cluster.Step")
		c.Step()
		tr.end(sp)
		if w.ckptEvery != 0 && c.Rounds()%w.ckptEvery == 0 {
			err = w.checkpointAll(c, tr)
		}
		it.steps = append(it.steps, time.Since(r0))
		if !failedOver && c.OpsDone() >= failAt {
			failedOver = true
			sp := tr.begin("counters")
			counters.bank(c, w.victim)
			tr.end(sp)
			sp = tr.begin("cluster.Failover")
			if ferr := c.Failover(w.victim); ferr != nil && err == nil {
				err = ferr
			}
			tr.end(sp)
			sp = tr.begin("counters")
			counters.rebase(c, w.victim)
			tr.end(sp)
		}
		if ops := c.OpsDone(); ops != last {
			last, idle = ops, 0
		} else if idle++; idle > stallRounds {
			err = fmt.Errorf("no operation completed in %d rounds", stallRounds)
		}
	}
	tr.end(top)
	busy := time.Since(tRun)
	sp = tr.begin("counters")
	prof1 := c.HostProfile()
	sim := counters.finish(c)
	arena := 0.0
	for id := 0; id < shards; id++ {
		arena += float64(c.Node(id).Sys().Machine().Mem().Size()) / 1e6
	}
	tr.end(sp)

	top = tr.begin("audit")
	sp = tr.begin("cluster.VerifyAcked")
	lost, aerr := c.VerifyAcked()
	tr.end(sp)
	tr.end(top)
	if err == nil {
		err = aerr
	}

	top = tr.begin("check")
	sp = tr.begin("cluster.Snapshot")
	res := c.Snapshot()
	tr.end(sp)
	it.failed, it.err = w.check(res, lost, err)
	it.fingerprint = fingerprint(res, sim)
	tr.end(top)
	it.wall = time.Since(tRun)
	cpu := processCPU() - cpu0

	if tr != nil && w.ckptEvery != 0 {
		// One extra save of shard 0, outside the measured phase: the size
		// of the checkpoints Cluster.Checkpoint took (it keeps them private).
		sp := tr.begin("probe.snapshot.Save")
		if b, serr := snapshot.Save(c.Node(0)); serr == nil {
			it.layer["snapshot.bytes"] = float64(len(b))
		}
		tr.end(sp)
	}
	it.layer["trace.top_spans_s"] = tr.topLevel(runMark, "probe.snapshot.Save").Seconds()

	ops := float64(res.Ops)
	it.work, it.busy = res.Ops, busy
	dRounds := float64(prof1.Rounds - prof0.Rounds)
	dRun := float64(prof1.RunNS - prof0.RunNS)
	dGen := float64(prof1.GenerateNS - prof0.GenerateNS)
	dFill := float64(prof1.FillNS - prof0.FillNS)
	dDrain := float64(prof1.DrainNS - prof0.DrainNS)
	l := it.layer
	l["exp.cpu_util"] = cpu.Seconds() / (it.wall.Seconds() * float64(w.opts.ShardWorkers))
	l["machine.instr"] = float64(sim.instr)
	l["machine.ns_per_instr"] = ratio(dRun, float64(sim.instr))
	l["machine.sb_hit"] = ratio(float64(sim.blockInstrs), float64(sim.instr))
	l["machine.ff_frac"] = ratio(float64(sim.ffCycles), float64(sim.cycles))
	l["machine.arena_mb"] = arena
	l["sim_minstr_per_s"] = float64(sim.instr) / 1e6 / it.wall.Seconds()
	l["core.syncs_per_op"] = ratio(float64(sim.syncs), ops)
	l["core.votes_per_op"] = ratio(float64(sim.votes), ops)
	l["cluster.generate_ns_per_op"] = ratio(dGen, ops)
	l["cluster.fill_ns_per_op"] = ratio(dFill, ops)
	l["cluster.drain_ns_per_op"] = ratio(dDrain, ops)
	l["cluster.run_ns_per_round"] = ratio(dRun, dRounds)
	l["cluster.router_share"] = ratio(dGen+dFill+dDrain, dGen+dFill+dDrain+dRun)
	l["cluster.rounds_per_op"] = ratio(dRounds, ops)
	l["cluster.audit_s"] = sumDur(tr.durations(mark, "cluster.VerifyAcked")).Seconds()
	l["cluster.failover_ms"] = sumDur(tr.durations(mark, "cluster.Failover")).Seconds() * 1e3
	saves := tr.durations(mark, "cluster.Checkpoint")
	saveMS := make([]float64, len(saves))
	for i, d := range saves {
		saveMS[i] = d.Seconds() * 1e3
	}
	l["snapshot.saves"] = float64(len(saves))
	l["snapshot.save_ms_p50"] = median(saveMS)
	l["snapshot.save_ms_max"] = quantile(saveMS, 1)
	l["snapshot.save_mb_per_s"] = ratio(l["snapshot.bytes"]*float64(len(saves))/1e6, sumDur(saves).Seconds())
	l["snapshot.ckpt_share"] = sumDur(saves).Seconds() / it.wall.Seconds()
	return it
}

// checkpointAll checkpoints every live shard in shard-ID order.
func (w *clusterWorkload) checkpointAll(c *cluster.Cluster, tr *tracer) error {
	for id := 0; id < w.opts.Shards; id++ {
		if halted, _ := c.Node(id).Halted(); halted {
			continue
		}
		sp := tr.begin("cluster.Checkpoint")
		err := c.Checkpoint(id)
		tr.end(sp)
		if err != nil {
			return err
		}
	}
	return nil
}

// check is the cluster correctness gate: every requested operation
// acknowledged, no client-visible error or corruption, no lost
// acknowledged write, no halted shard, and the failover done when the
// workload asks for one. failed counts the operations that missed.
func (w *clusterWorkload) check(res cluster.Result, lost uint64, runErr error) (failed uint64, err error) {
	want := w.opts.Operations
	missing := uint64(0)
	if res.Ops < want {
		missing = want - res.Ops
	}
	failed = max(res.Errors, missing) + res.Corruptions + lost
	var errs []error
	if runErr != nil {
		errs = append(errs, runErr)
	}
	if failed != 0 {
		errs = append(errs, fmt.Errorf("%d of %d operations acked, errors %d, corruptions %d, lost writes %d",
			res.Ops, want, res.Errors, res.Corruptions, lost))
	}
	for _, sh := range res.Shards {
		if sh.Halted {
			errs = append(errs, fmt.Errorf("shard %d halted: %s", sh.ID, sh.HaltReason))
		}
	}
	if w.failover && (len(res.Shards) <= w.victim || res.Shards[w.victim].Failovers != 1) {
		errs = append(errs, fmt.Errorf("shard %d: failover not performed", w.victim))
	}
	if err = errors.Join(errs...); err != nil {
		return min(max(failed, 1), want), err
	}
	return 0, nil
}

// fingerprint hashes the timing-free result and the run-phase
// simulation counters; two runs of one code and seed must agree.
func fingerprint(res cluster.Result, sim simCounters) string {
	b, _ := json.Marshal(struct {
		Result cluster.Result `json:"result"`
		Instr  uint64         `json:"instr"`
		Syncs  uint64         `json:"syncs"`
		Votes  uint64         `json:"votes"`
		Cycles uint64         `json:"cycles"`
	}{res, sim.instr, sim.syncs, sim.votes, sim.cycles})
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func sumDur(ds []time.Duration) time.Duration {
	var s time.Duration
	for _, d := range ds {
		s += d
	}
	return s
}
