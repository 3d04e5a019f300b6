package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer of the program, recorded from the
// benchmark's side of the boundary.
type span struct {
	name       string
	parent     int // index of the enclosing span, -1 at top level
	start, end time.Duration
}

// tracer keeps spans in memory for the whole run and writes them out at
// the end. A nil *tracer records nothing, so untraced runs pay only a
// nil check per call site.
type tracer struct {
	origin time.Time
	spans  []span
	stack  []int
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span whose parent is the innermost open span.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{name: name, parent: parent, start: time.Since(t.origin)})
	id := len(t.spans) - 1
	t.stack = append(t.stack, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].end = time.Since(t.origin)
	t.stack = t.stack[:len(t.stack)-1]
}

// mark returns the index the next span will get, so one iteration's
// spans can be summarised on their own.
func (t *tracer) mark() int {
	if t == nil {
		return 0
	}
	return len(t.spans)
}

// durations returns the durations of the spans named name recorded
// since mark from.
func (t *tracer) durations(from int, name string) []time.Duration {
	if t == nil {
		return nil
	}
	var out []time.Duration
	for _, s := range t.spans[from:] {
		if s.name == name {
			out = append(out, s.end-s.start)
		}
	}
	return out
}

// topLevel sums the durations of the top-level spans recorded since
// mark from, skipping the named ones.
func (t *tracer) topLevel(from int, skip ...string) time.Duration {
	if t == nil {
		return 0
	}
	var sum time.Duration
next:
	for _, s := range t.spans[from:] {
		if s.parent != -1 {
			continue
		}
		for _, n := range skip {
			if s.name == n {
				continue next
			}
		}
		sum += s.end - s.start
	}
	return sum
}

// write stores the spans as CSV (id, parent, name, start and end in ns
// from the start of the run), preceded by a comment line with the run's
// host stamp.
func (t *tracer) write(path, header string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "# %s\nid,parent,name,start_ns,end_ns\n", header)
	for i, s := range t.spans {
		fmt.Fprintf(w, "%d,%d,%s,%d,%d\n", i, s.parent, s.name, s.start.Nanoseconds(), s.end.Nanoseconds())
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
