package machine

import (
	"bytes"
	"errors"
	"slices"
	"testing"

	"rcoe/internal/asm"
	"rcoe/internal/isa"
	snap "rcoe/internal/snapshot"
)

// buildStateMachine assembles a long two-core loop with a store stream,
// arms hard faults and an intermittent-fault device, and runs it to
// cycle `warm`. Both the saved and the restoring machine are built
// through this one path, which is the snapshot restore contract.
func buildStateMachine(t *testing.T, warm uint64) *Machine {
	t.Helper()
	m := New(X86(), 1<<16) // jitter enabled: exercises the PRNG state
	b := asm.New()
	b.Li(1, 0)
	b.Li64(2, 5_000_000)
	b.Li(3, 0x8000)
	b.Label("loop")
	b.Addi(1, 1, 1)
	b.St(8, 3, 1, 0) // store stream keeps cache + bus state nontrivial
	b.Addi(3, 3, 8)
	b.Andi(3, 3, 0x8FF8)
	b.Blt(1, 2, "loop")
	b.Hlt()
	prog := b.MustAssemble(0)
	if err := m.Mem().Write(0, isa.EncodeProgram(prog)); err != nil {
		t.Fatal(err)
	}
	m.SetHandler(handlerFunc(func(c *Core, tr Trap) { c.Halt() }))
	as := flatAS(m.Mem().Size())
	m.StartCore(0, 0, as)
	m.StartCore(1, 0, as)
	m.RouteIRQ(5, 1)
	if err := m.Mem().SetStuck(0x9000, 3, 1); err != nil {
		t.Fatal(err)
	}
	m.AddDevice(&IntermittentFault{Addr: 0x9100, Bit: 1, Value: 1,
		OnCycles: 500, OffCycles: 700, Seed: 42})
	m.Run(warm)
	return m
}

// TestMachineStateRoundTrip pins the machine-layer snapshot contract:
// save → restore into a fresh structurally identical machine is exact
// (re-serializing yields byte-identical data), and both machines then
// evolve bit-identically.
func TestMachineStateRoundTrip(t *testing.T) {
	a := buildStateMachine(t, 10_000)
	data, err := snap.Save(a)
	if err != nil {
		t.Fatal(err)
	}

	// Restore into a fresh machine built through the same path but
	// stopped at a different cycle, so every restored field matters.
	b := buildStateMachine(t, 3_333)
	if err := snap.Restore(b, data); err != nil {
		t.Fatal(err)
	}

	// Round-trip byte identity: nothing lost, nothing invented.
	data2, err := snap.Save(b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, data2) {
		sa, _ := snap.Parse(data)
		sb, _ := snap.Parse(data2)
		t.Fatalf("re-serialized snapshot differs: %v", snap.Diff(sa, sb))
	}

	// Continuation determinism: both machines step onward identically.
	a.Run(7_500)
	b.Run(7_500)
	da, err := snap.Save(a)
	if err != nil {
		t.Fatal(err)
	}
	db, err := snap.Save(b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(da, db) {
		sa, _ := snap.Parse(da)
		sb, _ := snap.Parse(db)
		t.Fatalf("continuation diverged after restore: %v", snap.Diff(sa, sb))
	}
	if a.Now() != b.Now() || a.Now() != 17_500 {
		t.Fatalf("now: a=%d b=%d", a.Now(), b.Now())
	}
}

// TestMachineStateAccelPortability saves under one accelerator combo and
// restores under another: the simulated state must evolve identically
// (fast-forward and the exec cache are host-side derived state, excluded
// from the snapshot boundary).
func TestMachineStateAccelPortability(t *testing.T) {
	a := buildStateMachine(t, 10_000)
	a.SetFastForward(true)
	a.SetExecCache(true)
	data, err := snap.Save(a)
	if err != nil {
		t.Fatal(err)
	}
	a.Run(20_000)

	b := buildStateMachine(t, 0)
	b.SetFastForward(false)
	b.SetExecCache(false)
	if err := snap.Restore(b, data); err != nil {
		t.Fatal(err)
	}
	b.Run(20_000)

	if a.Now() != b.Now() {
		t.Fatalf("now diverged: %d vs %d", a.Now(), b.Now())
	}
	for i := 0; i < a.NumCores(); i++ {
		ca, cb := a.Core(i), b.Core(i)
		if ca.Regs != cb.Regs || ca.PC != cb.PC || ca.Cycles != cb.Cycles ||
			ca.Instructions != cb.Instructions {
			t.Fatalf("core %d diverged across accel combos:\n a: pc=%#x cyc=%d %v\n b: pc=%#x cyc=%d %v",
				i, ca.PC, ca.Cycles, ca.Regs, cb.PC, cb.Cycles, cb.Regs)
		}
	}
	ma, _ := a.Mem().Read(0x8000, 0x1000)
	mb, _ := b.Mem().Read(0x8000, 0x1000)
	if !bytes.Equal(ma, mb) {
		t.Fatal("data memory diverged across accel combos")
	}
}

// TestMachineStateIncompatible rejects structurally mismatched targets.
func TestMachineStateIncompatible(t *testing.T) {
	a := buildStateMachine(t, 1_000)
	data, err := snap.Save(a)
	if err != nil {
		t.Fatal(err)
	}
	// Different memory size.
	small := New(X86(), 1<<15)
	if err := snap.Restore(small, data); !errors.Is(err, snap.ErrIncompatible) {
		t.Fatalf("mem-size mismatch: got %v, want ErrIncompatible", err)
	}
	// Different core count / profile.
	arm := New(Arm(), 1<<16)
	if err := snap.Restore(arm, data); !errors.Is(err, snap.ErrIncompatible) {
		t.Fatalf("profile mismatch: got %v, want ErrIncompatible", err)
	}
	// Missing stateful device.
	bare := New(X86(), 1<<16)
	if err := snap.Restore(bare, data); !errors.Is(err, snap.ErrIncompatible) {
		t.Fatalf("device mismatch: got %v, want ErrIncompatible", err)
	}
}

// TestMachineStateHardFaults verifies stuck bits and the intermittent
// fault's phase machine survive a round trip: the restored machine keeps
// asserting the fault exactly as the original does.
func TestMachineStateHardFaults(t *testing.T) {
	a := buildStateMachine(t, 10_000)
	data, err := snap.Save(a)
	if err != nil {
		t.Fatal(err)
	}
	b := buildStateMachine(t, 0)
	if err := snap.Restore(b, data); err != nil {
		t.Fatal(err)
	}
	if b.Mem().StuckBits() != a.Mem().StuckBits() {
		t.Fatalf("stuck set lost: %d vs %d", b.Mem().StuckBits(), a.Mem().StuckBits())
	}
	// Writing 0 to a stuck-at-1 bit must re-assert on both machines.
	for _, m := range []*Machine{a, b} {
		if err := m.Mem().WriteU(0x9000, 1, 0); err != nil {
			t.Fatal(err)
		}
		v, _ := m.Mem().ReadU(0x9000, 1)
		if v != 1<<3 {
			t.Fatalf("stuck bit not asserted after restore: %#x", v)
		}
	}
}

// zeroPagesRef is the byte-at-a-time reference for nonzeroPages.
func zeroPagesRef(mem []byte) []uint64 {
	var pages []uint64
	for i, v := range mem {
		p := uint64(i) >> pageShift
		if v != 0 && (len(pages) == 0 || pages[len(pages)-1] != p) {
			pages = append(pages, p)
		}
	}
	return pages
}

// TestNonzeroPagesEdges checks the zero-page scan against the byte-wise
// reference: a single nonzero byte at every offset in the first and last
// 40 bytes of a page (every lane of the compare's block and word steps
// and its byte tail), in arenas whose size is a whole number of pages
// and in ones ending in a short page that is not a multiple of 32 or 8
// bytes.
func TestNonzeroPagesEdges(t *testing.T) {
	const page = 1 << pageShift
	for _, size := range []int{3 * page, 3*page + 1000 + 13, 2*page + 37, 2*page + 5} {
		mem := make([]byte, size)
		last := (size - 1) / page * page
		var offs []int
		for _, base := range []int{page, last} {
			end := min(base+page, size)
			for i := 0; i < 40; i++ {
				offs = append(offs, base+i, end-1-i)
			}
		}
		for _, off := range offs {
			if off < 0 || off >= size {
				continue
			}
			for _, v := range []byte{1, 0x80} {
				mem[off] = v
				got, want := nonzeroPages(mem), zeroPagesRef(mem)
				if !slices.Equal(got, want) {
					t.Fatalf("size %d, byte %#x at %d: pages %v, want %v", size, v, off, got, want)
				}
				mem[off] = 0
			}
		}
		if got := nonzeroPages(mem); len(got) != 0 {
			t.Fatalf("size %d: all-zero arena selected pages %v", size, got)
		}
	}
}
