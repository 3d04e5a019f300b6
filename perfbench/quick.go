package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"rcoe/internal/bench"
	"rcoe/internal/exp"
	"rcoe/internal/stats"
)

// quickWorkers is the experiment engine's host worker count for
// paper-quick (rcoe-bench -parallel 2).
const quickWorkers = 2

// quickWorkload runs bench.All() at Quick scale and checks the rendered
// report against the committed results_quick.txt. Its experiments fix
// their own seeds, so the workload seed does not apply.
type quickWorkload struct {
	exps     []bench.Experiment
	expected []byte            // the text the selected experiments must render
	blocks   map[string][]byte // expected text per experiment ID
}

// newQuick loads the expected report from root/results_quick.txt. With
// ids nil it runs every experiment and expects the whole file byte for
// byte; otherwise only the named experiments and their sections.
func newQuick(root string, ids []string) (*quickWorkload, error) {
	golden, err := os.ReadFile(filepath.Join(root, "results_quick.txt"))
	if err != nil {
		return nil, err
	}
	w := &quickWorkload{blocks: splitReport(golden)}
	if ids == nil {
		w.exps, w.expected = bench.All(), golden
		return w, nil
	}
	var want bytes.Buffer
	for _, id := range ids {
		e, ok := bench.Lookup(id)
		if !ok {
			return nil, fmt.Errorf("unknown experiment %q", id)
		}
		w.exps = append(w.exps, e)
		want.Write(w.blocks[id])
	}
	w.expected = want.Bytes()
	return w, nil
}

// splitReport cuts a rendered report into its per-experiment sections,
// keyed by the ID in each "=== Title (id)" banner.
func splitReport(text []byte) map[string][]byte {
	blocks := map[string][]byte{}
	id, start := "", 0
	flush := func(end int) {
		if id != "" {
			blocks[id] = text[start:end]
		}
	}
	for off := 0; off < len(text); {
		line := text[off:]
		if i := bytes.IndexByte(line, '\n'); i >= 0 {
			line = line[:i]
		}
		if s := string(line); strings.HasPrefix(s, "=== ") && strings.HasSuffix(s, ")") {
			if open := strings.LastIndexByte(s, '('); open >= 0 {
				flush(off)
				id, start = s[open+1:len(s)-1], off
			}
		}
		off += len(line) + 1
	}
	flush(len(text))
	return blocks
}

// iterate runs one pass of the suite. Each Experiment.Run is timed (and
// traced) by wrapping it before bench.BuildReport calls it.
func (w *quickWorkload) iterate(tr *tracer) iteration {
	it := iteration{layer: map[string]float64{}}
	exp.SetDefaultWorkers(quickWorkers)
	durs := make([]time.Duration, len(w.exps))
	exps := make([]bench.Experiment, len(w.exps))
	for i, e := range w.exps {
		exps[i] = e
		exps[i].Run = func(s bench.Scale) (*stats.Table, error) {
			sp := tr.begin("bench." + e.ID)
			t0 := time.Now()
			tbl, err := e.Run(s)
			durs[i] = time.Since(t0)
			tr.end(sp)
			return tbl, err
		}
	}
	mark := tr.mark()
	cpu0 := processCPU()
	t0 := time.Now()
	sp := tr.begin("bench.BuildReport")
	rep := bench.BuildReport(bench.Quick, exps, nil)
	tr.end(sp)
	sp = tr.begin("check")
	var text bytes.Buffer
	_ = rep.WriteText(&text) // a bytes.Buffer write cannot fail
	failed, err := w.check(rep, text.Bytes())
	tr.end(sp)
	it.wall = time.Since(t0)
	cpu := processCPU() - cpu0

	sum := sha256.Sum256(text.Bytes())
	it.fingerprint = hex.EncodeToString(sum[:])
	it.attempted, it.failed, it.err = uint64(len(w.exps)), failed, err
	it.work, it.busy, it.steps = uint64(len(w.exps)), it.wall, durs
	it.layer["exp.cpu_util"] = cpu.Seconds() / (it.wall.Seconds() * quickWorkers)
	it.layer["trace.top_spans_s"] = tr.topLevel(mark).Seconds()
	for _, e := range w.exps {
		if ds := tr.durations(mark, "bench."+e.ID); len(ds) > 0 {
			it.layer["bench."+e.ID+"_s"] = ds[0].Seconds()
		}
	}
	return it
}

// check compares the rendered report with the expected text. It counts
// experiments that errored or whose section differs; a difference
// outside every section counts once.
func (w *quickWorkload) check(rep *bench.Report, text []byte) (failed uint64, err error) {
	var bad []string
	for _, e := range rep.Experiments {
		var b bytes.Buffer
		_ = (&bench.Report{Experiments: []bench.ExperimentResult{e}}).WriteText(&b)
		if e.Err != "" || !bytes.Equal(b.Bytes(), w.blocks[e.ID]) {
			bad = append(bad, e.ID)
		}
	}
	switch {
	case len(bad) > 0:
		return uint64(len(bad)), fmt.Errorf("paper-quick: output differs from results_quick.txt in %s", strings.Join(bad, ", "))
	case !bytes.Equal(text, w.expected):
		return 1, fmt.Errorf("paper-quick: output differs from results_quick.txt outside the experiment sections")
	}
	return 0, nil
}

// probeSetup measures paper-quick's set-up as a user pays it: it starts
// this binary n times in probe mode, each of which loads the suite and
// its expected report and reports how long after the launch it was ready.
func probeSetup(root string, n int) ([]time.Duration, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	out := make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now().UnixNano()
		cmd := exec.Command(self, "--root", root, "--probe-setup", strconv.FormatInt(t0, 10))
		cmd.Stderr = os.Stderr
		b, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("setup probe: %w", err)
		}
		ns, err := strconv.ParseInt(strings.TrimSpace(string(b)), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("setup probe: %w", err)
		}
		out = append(out, time.Duration(ns))
	}
	return out, nil
}

// runProbe is the probe side of probeSetup: get ready to run the suite,
// then print the nanoseconds since the parent launched this process.
func runProbe(root string, launchedNS int64) error {
	if _, err := newQuick(root, nil); err != nil {
		return err
	}
	exp.SetDefaultWorkers(quickWorkers)
	fmt.Println(time.Now().UnixNano() - launchedNS)
	return nil
}
