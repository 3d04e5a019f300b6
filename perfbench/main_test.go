package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"rcoe/internal/bench"
	"rcoe/internal/cluster"
)

// The smoke test runs every workload at tiny sizes. The paper-quick
// set-up probe re-executes the running binary, which under `go test` is
// the test binary, so TestMain serves the probe too.
func TestMain(m *testing.M) {
	if slices.Contains(os.Args, "--probe-setup") {
		os.Exit(run())
	}
	os.Exit(m.Run())
}

const root = ".."

func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		kind    string
		catalog []metric
		listed  []struct{ Name, Unit, Better string }
	}{{"end_to_end", endToEnd, b.EndToEnd}, {"per_layer", perLayer, b.PerLayer}} {
		if len(c.listed) != len(c.catalog) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the catalog %d", c.kind, len(c.listed), len(c.catalog))
		}
		for i, m := range c.catalog {
			l := c.listed[i]
			if l.Name != m.name || l.Unit != m.unit || l.Better != m.better {
				t.Errorf("%s[%d]: BENCHMARK.json has %s %s %s, the catalog %s %s %s",
					c.kind, i, l.Name, l.Unit, l.Better, m.name, m.unit, m.better)
			}
		}
	}
}

func TestQuickIDsMatchBench(t *testing.T) {
	if got := bench.IDs(); !slices.Equal(got, sortedCopy(quickIDs)) {
		t.Fatalf("bench.IDs() = %v, catalog has %v", got, quickIDs)
	}
	for i, e := range bench.All() {
		if e.ID != quickIDs[i] {
			t.Fatalf("bench.All()[%d] = %s, catalog has %s", i, e.ID, quickIDs[i])
		}
	}
}

func sortedCopy(xs []string) []string {
	out := slices.Clone(xs)
	slices.Sort(out)
	return out
}

// TestEveryMetricEmitted runs each workload at tiny size, untraced and
// traced, and checks that the result names exactly the catalog's
// metrics, each with its unit, and passes every gate. It runs in a
// scratch root holding only the expected report, so the trace files
// land outside the source tree.
func TestEveryMetricEmitted(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join(root, "results_quick.txt"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "results_quick.txt"), golden, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"paper-quick", "cluster-read", "cluster-write-ckpt"} {
		for _, traced := range []bool{false, true} {
			cfg := runConfig{workload: name, seed: 3, trace: traced, root: dir}
			w, err := newWorkload(cfg, true)
			if err != nil {
				t.Fatal(err)
			}
			res, meta, err := measure(cfg, w)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d errors=%v",
					name, traced, res.Correct, res.Attempted, res.Failed, meta.Errors)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				v, ok := res.Metrics[m.name]
				if !ok || v.Unit != m.unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", name, traced, m.name, v, m.unit)
				}
			}
			if !traced {
				for _, m := range endToEnd {
					if res.Metrics[m.name].Value <= 0 {
						t.Errorf("%s: end-to-end %s = %v, want > 0", name, m.name, res.Metrics[m.name].Value)
					}
				}
			}
			if traced && name == "cluster-write-ckpt" {
				for _, n := range []string{"snapshot.saves", "snapshot.bytes", "cluster.failover_ms", "machine.instr"} {
					if res.Metrics[n].Value <= 0 {
						t.Errorf("%s: %s = %v, want > 0", name, n, res.Metrics[n].Value)
					}
				}
			}
		}
	}
}

// TestQuickRejectsOneByteChange changes one byte of the expected
// report and checks that the run fails.
func TestQuickRejectsOneByteChange(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join(root, "results_quick.txt"))
	if err != nil {
		t.Fatal(err)
	}
	at := bytes.Index(golden, []byte("deadbeef"))
	if at < 0 {
		t.Fatal("results_quick.txt has no table1 checksum to change")
	}
	changed := slices.Clone(golden)
	changed[at] = 'e'
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "results_quick.txt"), changed, 0o644); err != nil {
		t.Fatal(err)
	}
	w, err := newQuick(dir, tinyQuickIDs)
	if err != nil {
		t.Fatal(err)
	}
	if it := w.iterate(nil); it.err == nil || it.failed != 1 {
		t.Fatalf("one-byte change: err=%v failed=%d, want an error and 1 failed experiment", it.err, it.failed)
	}
	res, _, err := measure(runConfig{workload: "paper-quick", trace: true, root: dir}, w)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed == 0 {
		t.Fatalf("one-byte change: correct=%v failed=%d", res.Correct, res.Failed)
	}
}

// TestLostWriteFailsRun checks the cluster gate on a result with one
// lost acknowledged write, and that a failed gate fails the run.
func TestLostWriteFailsRun(t *testing.T) {
	w, err := newCluster("cluster-write-ckpt", 3, tinyCluster)
	if err != nil {
		t.Fatal(err)
	}
	good := cluster.Result{Ops: w.opts.Operations, Shards: make([]cluster.ShardStats, w.opts.Shards)}
	good.Shards[w.victim].Failovers = 1
	if failed, err := w.check(good, 0, nil); err != nil || failed != 0 {
		t.Fatalf("clean result: failed=%d err=%v", failed, err)
	}
	if failed, err := w.check(good, 1, nil); err == nil || failed != 1 {
		t.Fatalf("one lost write: failed=%d err=%v, want 1 and an error", failed, err)
	}
	_, gateErr := w.check(good, 1, nil)
	res, _, err := measure(runConfig{workload: "cluster-write-ckpt"}, failing{gateErr})
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed != 1 {
		t.Fatalf("lost write: correct=%v failed=%d, want false and 1", res.Correct, res.Failed)
	}
}

// failing is a workload whose every repetition fails its gate.
type failing struct{ err error }

func (f failing) iterate(*tracer) iteration {
	return iteration{layer: map[string]float64{}, attempted: 10, failed: 1, err: f.err}
}
