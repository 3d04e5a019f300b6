// Command perfbench is the repository's end-to-end benchmark. It drives
// the simulator through its public packages on one workload, checks that
// every output is correct, and prints one JSON result line last.
//
// Run it from the repository root through run.py, which builds it:
//
//	python3 perfbench/run.py --workload cluster-read --seed 1 --seconds 20 --trace 0
//
// Workloads: paper-quick, cluster-read, cluster-write-ckpt (see
// README.md). Each run repeats the workload until --seconds have passed
// and reports medians over the repetitions. --trace 0 reports the
// end-to-end metrics of untraced repetitions; --trace 1 reports the
// per-layer metrics of traced ones, alternating with untraced ones to
// measure the tracing overhead, and writes the spans to
// .bench_build/trace/<workload>-seed<N>.csv.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "paper-quick, cluster-read or cluster-write-ckpt")
	seed := flag.Uint64("seed", 1, "workload seed (the cluster client streams derive from it)")
	secs := flag.Float64("seconds", 10, "measure for this many host seconds (at least one repetition)")
	traceFlag := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	root := flag.String("root", ".", "repository root holding results_quick.txt")
	probe := flag.Int64("probe-setup", 0, "internal: paper-quick set-up probe, given the launch time in Unix ns")
	flag.Parse()
	if *probe != 0 {
		if err := runProbe(*root, *probe); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
		return 0
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	cfg := runConfig{workload: *name, seed: *seed, seconds: *secs, trace: *traceFlag == 1, root: *root}
	w, err := newWorkload(cfg, false)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	res, meta, err := measure(cfg, w)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(map[string]any{"perfbench": meta}); err != nil {
		return 1
	}
	if err := enc.Encode(res); err != nil {
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

type runConfig struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	root     string
}

// bencher is one benchmark workload; iterate runs one complete,
// checked repetition of it, tracing into tr when tr is non-nil.
type bencher interface {
	iterate(tr *tracer) iteration
}

// iteration is what one repetition measured.
type iteration struct {
	setup       time.Duration   // set-up before the measured phase
	wall        time.Duration   // end of set-up to a verified result
	work        uint64          // operations (clusters) or experiments completed
	busy        time.Duration   // the time work took
	steps       []time.Duration // one per round (clusters) or experiment
	roundP50    float64         // median of steps, in us
	attempted   uint64
	failed      uint64
	err         error // the correctness gate's verdict
	fingerprint string
	peakRSS     float64            // MB, this repetition's peak where the kernel allows
	layer       map[string]float64 // per-layer metrics
}

// discountSteal removes from a repetition's host times the share the
// hypervisor stole. On a shared virtual machine the steal varies by
// tens of percent from minute to minute with other tenants' load, and
// a repetition that wanted cpu+stolen CPU time but got cpu would, run
// alone, have taken cpu/(cpu+stolen) of its time. The process's CPU
// time already excludes steal. This scales the whole-repetition times
// of the
// repetition. Rounds are left alone: steal comes in slices of
// milliseconds, so it lengthens a few rounds a lot rather than every
// round a little, and no single factor fits them.
func (it *iteration) discountSteal(cpu, stolen time.Duration) {
	if cpu <= 0 || stolen <= 0 {
		return
	}
	f := float64(cpu) / float64(cpu+stolen)
	scale := func(d time.Duration) time.Duration { return time.Duration(float64(d) * f) }
	it.setup, it.wall, it.busy = scale(it.setup), scale(it.wall), scale(it.busy)
	it.layer["trace.top_spans_s"] *= f
}

// tinyQuickIDs is the paper-quick subset the smoke test runs.
var tinyQuickIDs = []string{"table1", "ablate-fletcher"}

// tinyCluster is the cluster size the smoke test runs.
var tinyCluster = clusterSize{records: 200, operations: 600, ckptEvery: 20}

func newWorkload(cfg runConfig, tiny bool) (bencher, error) {
	if cfg.workload == "paper-quick" {
		var ids []string
		if tiny {
			ids = tinyQuickIDs
		}
		return newQuick(cfg.root, ids)
	}
	size := fullCluster
	if tiny {
		size = tinyCluster
	}
	return newCluster(cfg.workload, cfg.seed, size)
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted uint64           `json:"attempted"`
	Failed    uint64           `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runMeta stamps a result with what produced it.
type runMeta struct {
	Workload     string    `json:"workload"`
	Seed         uint64    `json:"seed"`
	Trace        bool      `json:"trace"`
	Host         hostStamp `json:"host"`
	Iterations   int       `json:"iterations"`
	Fingerprint  string    `json:"fingerprint"`
	Errors       []string  `json:"errors,omitempty"`
	TraceFile    string    `json:"trace_file,omitempty"`
	SetupProbesS []float64 `json:"setup_probes_s,omitempty"`
	// RoundSamples is how many rounds (or experiment runs) the timed
	// repetitions of an untraced run took together.
	RoundSamples int `json:"round_samples,omitempty"`
	// Every repetition's raw times, warm-up first: wall and set-up, the
	// process's CPU time, and the CPU time the hypervisor stole from the
	// machine meanwhile (see discountSteal).
	WallS   []float64 `json:"wall_s"`
	SetupS  []float64 `json:"setup_s"`
	CPUS    []float64 `json:"cpu_s"`
	StolenS []float64 `json:"stolen_s"`
	// PeakRSSMB is every repetition's peak resident set, warm-up first.
	PeakRSSMB []float64 `json:"peak_rss_mb"`
}

// measure repeats the workload until cfg.seconds have passed and
// reduces the repetitions to the reported metrics. Repetitions that
// fail their correctness gate count as failed and are not timed.
func measure(cfg runConfig, w bencher) (result, runMeta, error) {
	meta := runMeta{Workload: cfg.workload, Seed: cfg.seed, Trace: cfg.trace, Host: stampHost()}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	_, quick := w.(*quickWorkload)
	var probes []time.Duration

	var plain, traced []iteration
	res := result{Metrics: map[string]value{}}
	start := time.Now()
	for i := 0; ; i++ {
		// Repetition 0 warms the heap and caches and is checked but not
		// timed. A traced run then alternates traced and untraced
		// repetitions, so the tracing overhead is their difference.
		warm, on := i == 0, cfg.trace && i%2 == 1
		var t *tracer
		if on {
			t = tr
		}
		runtime.GC()
		resetPeakRSS()
		h0, st0, cpu0 := readHeap(), stolenCPU(), processCPU()
		it := w.iterate(t)
		h1, st1, cpu1 := readHeap(), stolenCPU(), processCPU()
		meta.WallS = append(meta.WallS, it.wall.Seconds())
		meta.SetupS = append(meta.SetupS, it.setup.Seconds())
		meta.CPUS = append(meta.CPUS, (cpu1 - cpu0).Seconds())
		meta.StolenS = append(meta.StolenS, (st1 - st0).Seconds())
		it.discountSteal(cpu1-cpu0, st1-st0)
		us := make([]float64, len(it.steps))
		for j, d := range it.steps {
			us[j] = float64(d.Nanoseconds()) / 1e3
		}
		it.roundP50 = quantile(us, 0.5)
		it.layer["round_p99_us"] = quantile(us, 0.99)
		it.peakRSS = peakRSSMB()
		meta.PeakRSSMB = append(meta.PeakRSSMB, it.peakRSS)
		if quick && !cfg.trace {
			// paper-quick's set-up is launching the suite; probe it a few
			// times after every repetition, so the probes sample the
			// whole run.
			ps, err := probeSetup(cfg.root, 5)
			if err != nil {
				return result{}, meta, err
			}
			probes = append(probes, ps...)
		}
		it.layer["runtime.alloc_mb"] = float64(h1.allocBytes-h0.allocBytes) / 1e6
		it.layer["runtime.gc_cycles"] = float64(h1.gcCycles - h0.gcCycles)
		it.layer["runtime.gc_pause_ms"] = float64(h1.pauseNS-h0.pauseNS) / 1e6

		meta.Iterations++
		res.Attempted += it.attempted
		res.Failed += it.failed
		switch {
		case it.err != nil:
			meta.Errors = append(meta.Errors, it.err.Error())
		case meta.Fingerprint == "":
			meta.Fingerprint = it.fingerprint
		case meta.Fingerprint != it.fingerprint:
			res.Failed++
			meta.Errors = append(meta.Errors, "fingerprint differs between repetitions of one seed")
		}
		switch {
		case warm || it.err != nil:
		case on:
			traced = append(traced, it)
		default:
			plain = append(plain, it)
		}
		if it.err != nil || time.Since(start).Seconds() >= cfg.seconds && enough(cfg.trace, plain, traced) {
			break
		}
	}
	res.Correct = res.Failed == 0 && len(meta.Errors) == 0
	meta.SetupProbesS = seconds(probes)

	if cfg.trace {
		fillPerLayer(res.Metrics, plain, traced)
		put(res.Metrics, "fail_frac", ratio(float64(res.Failed), float64(res.Attempted)))
		meta.TraceFile = filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-seed%d.csv", cfg.workload, cfg.seed))
		head, _ := json.Marshal(meta)
		if err := tr.write(filepath.Join(cfg.root, meta.TraceFile), string(head)); err != nil {
			return result{}, meta, fmt.Errorf("write trace: %w", err)
		}
	} else {
		meta.RoundSamples = fillEndToEnd(res.Metrics, plain, probes)
	}
	return res, meta, nil
}

// minTimed is the fewest timed repetitions an untraced run reduces, so
// that its medians can set aside one repetition hit by a burst of
// host noise. It binds only on cluster-write-ckpt, whose repetitions
// take about 10 s.
const minTimed = 3

// enough reports whether a run has the repetitions it reduces: minTimed
// untraced ones, or one traced and one untraced in a traced run.
func enough(trace bool, plain, traced []iteration) bool {
	if trace {
		return len(plain) > 0 && len(traced) > 0
	}
	return len(plain) >= minTimed
}

// fillEndToEnd reduces untraced repetitions to the end-to-end metrics
// and returns the number of round samples. The round median is taken
// within each repetition and then medianed like the other metrics:
// paper-quick has only 18 samples per repetition with wide gaps between
// experiments, where a pooled median would jump between neighbours.
func fillEndToEnd(m map[string]value, its []iteration, probes []time.Duration) int {
	var wall, setup, rate, p50, rss []float64
	samples := 0
	for _, it := range its {
		wall = append(wall, it.wall.Seconds())
		setup = append(setup, it.setup.Seconds())
		rate = append(rate, float64(it.work)/it.busy.Seconds())
		rss = append(rss, it.peakRSS)
		p50 = append(p50, it.roundP50)
		samples += len(it.steps)
	}
	if probes != nil {
		setup = seconds(probes)
	}
	put(m, "wall_s", median(wall))
	put(m, "setup_s", median(setup))
	put(m, "ops_per_s", median(rate))
	put(m, "round_p50_us", median(p50))
	put(m, "peak_rss_mb", quantile(rss, 1))
	return samples
}

// fillPerLayer reduces a traced run to the per-layer metrics: medians
// over the traced repetitions, plus the tracing overhead against the
// untraced ones.
func fillPerLayer(m map[string]value, plain, traced []iteration) {
	for _, mt := range perLayer {
		var xs []float64
		for _, it := range traced {
			xs = append(xs, it.layer[mt.name])
		}
		put(m, mt.name, median(xs))
	}
	var plainWall, tracedWall []float64
	for _, it := range plain {
		plainWall = append(plainWall, it.wall.Seconds())
	}
	for _, it := range traced {
		tracedWall = append(tracedWall, it.wall.Seconds())
	}
	put(m, "trace.untraced_wall_s", median(plainWall))
	put(m, "trace.overhead_s", median(tracedWall)-median(plainWall))
}

// put records a metric under its catalog unit.
func put(m map[string]value, name string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m[name] = value{Value: v, Unit: unitOf(name)}
}

func unitOf(name string) string {
	for _, list := range [][]metric{endToEnd, perLayer} {
		for _, mt := range list {
			if mt.name == name {
				return mt.unit
			}
		}
	}
	panic("perfbench: metric " + name + " is not in the catalog")
}
