package snapshot

import (
	"bytes"
	"errors"
	"os"
	"reflect"
	"testing"
)

func TestRoundTripPrimitives(t *testing.T) {
	w := NewWriter()
	e := w.Section("alpha")
	e.U64(42)
	e.I64(-7)
	e.Int(123456)
	e.Bool(true)
	e.Bool(false)
	e.Bytes([]byte{1, 2, 3})
	e.String("hello")
	e.U64s([]uint64{9, 8, 7})
	e.SortedU64Map(map[uint64]uint64{5: 50, 1: 10, 3: 30})
	e2 := w.Section("beta")
	e2.U64(99)

	data, err := w.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	snap, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	d, err := snap.Section("alpha")
	if err != nil {
		t.Fatal(err)
	}
	if got := d.U64(); got != 42 {
		t.Fatalf("U64: got %d", got)
	}
	if got := d.I64(); got != -7 {
		t.Fatalf("I64: got %d", got)
	}
	if got := d.Int(); got != 123456 {
		t.Fatalf("Int: got %d", got)
	}
	if !d.Bool() || d.Bool() {
		t.Fatal("Bool round trip failed")
	}
	if got := d.Bytes(); !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Fatalf("Bytes: got %v", got)
	}
	if got := d.String(); got != "hello" {
		t.Fatalf("String: got %q", got)
	}
	if got := d.U64s(); !reflect.DeepEqual(got, []uint64{9, 8, 7}) {
		t.Fatalf("U64s: got %v", got)
	}
	if got := d.SortedU64Map(); !reflect.DeepEqual(got, map[uint64]uint64{1: 10, 3: 30, 5: 50}) {
		t.Fatalf("SortedU64Map: got %v", got)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := snap.Section("beta")
	if err != nil {
		t.Fatal(err)
	}
	if got := b.U64(); got != 99 {
		t.Fatalf("beta U64: got %d", got)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDeterministicEncoding pins the byte-determinism contract: encoding
// the same logical state twice — including map-shaped state — yields
// identical bytes.
func TestDeterministicEncoding(t *testing.T) {
	build := func() []byte {
		w := NewWriter()
		e := w.Section("m")
		m := map[uint64]uint64{}
		for i := uint64(0); i < 64; i++ {
			m[i*0x9E3779B97F4A7C15] = i
		}
		e.SortedU64Map(m)
		data, err := w.Bytes()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	if a, b := build(), build(); !bytes.Equal(a, b) {
		t.Fatal("same state encoded to different bytes")
	}
}

func TestParseRejectsCorruption(t *testing.T) {
	w := NewWriter()
	w.Section("s").U64(1)
	data, err := w.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":      {},
		"bad magic":  append([]byte("XXXXXXXX"), data[8:]...),
		"truncated":  data[:len(data)-3],
		"trailing":   append(append([]byte{}, data...), 0xFF),
		"bad header": data[:10],
	}
	for name, corrupt := range cases {
		if _, err := Parse(corrupt); !errors.Is(err, ErrBadSnapshot) {
			t.Errorf("%s: got %v, want ErrBadSnapshot", name, err)
		}
	}
	if _, err := Parse(data); err != nil {
		t.Fatalf("pristine data rejected: %v", err)
	}
}

func TestMissingSection(t *testing.T) {
	w := NewWriter()
	w.Section("present").U64(1)
	data, _ := w.Bytes()
	snap, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := snap.Section("absent"); !errors.Is(err, ErrIncompatible) {
		t.Fatalf("got %v, want ErrIncompatible", err)
	}
}

func TestDecodeErrorLatches(t *testing.T) {
	w := NewWriter()
	w.Section("s").U64(7)
	data, _ := w.Bytes()
	snap, _ := Parse(data)
	d, _ := snap.Section("s")
	_ = d.U64()
	_ = d.U64() // over-read
	if d.Err() == nil {
		t.Fatal("over-read did not latch an error")
	}
	if got := d.U64(); got != 0 {
		t.Fatalf("read after error returned %d, want 0", got)
	}
	if d.Close() == nil {
		t.Fatal("Close after error returned nil")
	}
}

func TestDuplicateSectionRejected(t *testing.T) {
	w := NewWriter()
	w.Section("dup").U64(1)
	w.Section("dup").U64(2)
	if data, err := w.Bytes(); err == nil || data != nil {
		t.Fatalf("duplicate section: %d bytes, err %v; want no bytes and an error", len(data), err)
	}
	dst := make([]byte, 3, 1<<16)
	if got, err := AppendSave(dst, fixedSections{dup: true}); err == nil || len(got) != len(dst) {
		t.Fatalf("AppendSave with a duplicate section: %d bytes, err %v; want dst's %d and an error", len(got), err, len(dst))
	}
}

func TestDiff(t *testing.T) {
	build := func(v uint64, extra bool) *Snapshot {
		w := NewWriter()
		w.Section("a").U64(v)
		w.Section("b").U64(1)
		if extra {
			w.Section("c").U64(2)
		}
		data, err := w.Bytes()
		if err != nil {
			t.Fatal(err)
		}
		snap, err := Parse(data)
		if err != nil {
			t.Fatal(err)
		}
		return snap
	}
	if d := Diff(build(1, false), build(1, false)); len(d) != 0 {
		t.Fatalf("identical snapshots diff: %v", d)
	}
	d := Diff(build(1, false), build(2, true))
	if len(d) != 2 {
		t.Fatalf("expected 2 differences, got %v", d)
	}
}

func TestFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/x.snap"
	w := NewWriter()
	w.Section("s").String("payload")
	data, err := w.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteTo(f, data); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	snap, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	d, err := snap.Section("s")
	if err != nil {
		t.Fatal(err)
	}
	if got := d.String(); got != "payload" {
		t.Fatalf("got %q", got)
	}
}

// fixedSections is a Snapshotter whose SaveState writes fixed sections: a
// large one, small ones, and an empty last one.
type fixedSections struct{ dup bool }

func (s fixedSections) SaveState(w *Writer) error {
	big := make([]uint64, 5000)
	for i := range big {
		big[i] = uint64(i) << 40
	}
	w.Section("big").U64s(big)
	e := w.Section("small")
	e.String("payload")
	e.Bools([]bool{true, false, true})
	if s.dup {
		w.Section("small").U64(1)
	}
	w.Section("empty")
	return w.Err()
}

func (fixedSections) LoadState(*Snapshot) error { return nil }

// TestAppendSaveMatchesSave pins that the append-style save writes the
// same bytes as Save whatever dst it is given, and keeps dst's prefix.
func TestAppendSaveMatchesSave(t *testing.T) {
	want, err := Save(fixedSections{})
	if err != nil {
		t.Fatal(err)
	}
	dirty := bytes.Repeat([]byte{0xA5}, 2*len(want))
	for name, dst := range map[string][]byte{
		"nil":       nil,
		"dirty":     dirty[:0],
		"too small": make([]byte, 0, 16),
		"prefix":    []byte("prefix"),
	} {
		prefix := bytes.Clone(dst)
		got, err := AppendSave(dst, fixedSections{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(got[:len(prefix)], prefix) || !bytes.Equal(got[len(prefix):], want) {
			t.Fatalf("%s: AppendSave bytes differ from Save", name)
		}
	}
	if got, _ := AppendSave(dirty[:0], fixedSections{}); &got[0] != &dirty[0] {
		t.Fatal("AppendSave did not reuse a large enough dst")
	}
}

// TestWriterBackPatch checks the back-patched section count and payload
// lengths parse back, for a writer with no sections and one whose last
// section is empty.
func TestWriterBackPatch(t *testing.T) {
	data, err := NewWriter().Bytes()
	if err != nil {
		t.Fatal(err)
	}
	snap, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 16 || len(snap.Sections()) != 0 {
		t.Fatalf("empty writer: %d bytes, %d sections", len(data), len(snap.Sections()))
	}

	data, err = Save(fixedSections{})
	if err != nil {
		t.Fatal(err)
	}
	snap, err = Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	var sizes []int
	for _, s := range snap.Sections() {
		names = append(names, s.Name)
		sizes = append(sizes, len(s.Data))
	}
	if want := []string{"big", "small", "empty"}; !reflect.DeepEqual(names, want) {
		t.Fatalf("sections %v, want %v", names, want)
	}
	if want := []int{8 + 8*5000, 8 + 7 + 8 + 3, 0}; !reflect.DeepEqual(sizes, want) {
		t.Fatalf("section sizes %v, want %v", sizes, want)
	}
	d, _ := snap.Section("small")
	if got := d.String(); got != "payload" {
		t.Fatalf("small: got %q", got)
	}
	if got := d.Bytes(); !bytes.Equal(got, []byte{1, 0, 1}) {
		t.Fatalf("Bools: got %v", got)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d, _ = snap.Section("big")
	if got := d.U64s(); len(got) != 5000 || got[4999] != 4999<<40 {
		t.Fatalf("big: %d words", len(got))
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}
