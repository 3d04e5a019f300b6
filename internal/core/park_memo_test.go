package core

import (
	"fmt"
	"math/bits"
	"reflect"
	"sync/atomic"
	"testing"

	"rcoe/internal/asm"
	"rcoe/internal/isa"
	"rcoe/internal/kernel"
	"rcoe/internal/machine"
)

// parkShadow installs the memo shadow check for the rest of the test: it
// counts the evaluations the park memo skipped and those where the full
// condition disagreed with the memoized answer.
type parkShadow struct {
	skips, mismatches atomic.Int64
	first             atomic.Value // string: the first mismatch
}

func installParkShadow(t *testing.T) *parkShadow {
	t.Helper()
	ps := &parkShadow{}
	SetDebugParkShadow(func(rid int, memo, full bool) {
		ps.skips.Add(1)
		if memo != full {
			ps.first.CompareAndSwap(nil, fmt.Sprintf("replica %d: memo=%v full=%v", rid, memo, full))
			ps.mismatches.Add(1)
		}
	})
	t.Cleanup(func() { SetDebugParkShadow(nil) })
	return ps
}

func (ps *parkShadow) check(t *testing.T) {
	t.Helper()
	t.Logf("%d memoized park evaluations shadow-checked", ps.skips.Load())
	if n := ps.mismatches.Load(); n != 0 {
		t.Fatalf("%d memoized park evaluations disagreed with the full condition; first: %v", n, ps.first.Load())
	}
	if ps.skips.Load() == 0 {
		t.Fatal("the park memo never skipped an evaluation: the shadow check saw nothing")
	}
}

// burstLoop builds a program that alternates a compute burst of `burst`
// iterations with a null syscall, n times, then exits. Under SigSync each
// syscall is a vote barrier; the preemption tick opens rendezvous inside
// the bursts.
func burstLoop(t *testing.T, n, burst int64) []isa.Instr {
	t.Helper()
	b := asm.New()
	b.Li(5, 0)
	b.Li64(6, uint64(n))
	b.Label("outer")
	b.Li(9, 0)
	b.Li64(10, uint64(burst))
	b.Label("inner")
	b.Addi(9, 9, 1)
	b.Blt(9, 10, "inner")
	b.Syscall(kernel.SysNull)
	b.Addi(5, 5, 1)
	b.Blt(5, 6, "outer")
	b.Li(1, 0)
	b.Syscall(kernel.SysExit)
	prog, err := b.Assemble(kernel.TextVA)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// frameworkFlip is one fault injected into the framework page while a
// replica waits at a barrier.
type frameworkFlip struct {
	name string
	// event selects a replica parked at a per-syscall vote barrier
	// instead of a rendezvous.
	event bool
	// window reports whether flipping now, with r parked and p an alive
	// peer, can change when r wakes; flip injects the fault.
	window func(s *System, r *Replica, p int) bool
	flip   func(t *testing.T, s *System, r *Replica, p int)
}

// flipWordBits inverts the given bits of framework word w with
// Mem.FlipBit, one bit at a time.
func flipWordBits(t *testing.T, s *System, w int, mask uint64) {
	t.Helper()
	for m := mask; m != 0; m &= m - 1 {
		b := bits.TrailingZeros64(m)
		if err := s.m.Mem().FlipBit(sharedBase+uint64(w)*8+uint64(b/8), uint(b%8)); err != nil {
			t.Fatal(err)
		}
	}
}

func repWordIndex(rid, w int) int { return repBlockBase + rid*repBlockWords + w }

// notParkedAt reports whether replica p has not parked at r's rendezvous.
func notParkedAt(s *System, r *Replica, p int) bool {
	return s.sh.repWord(p, rwParkedGen) != r.park.gen
}

var frameworkFlips = []frameworkFlip{
	{
		name: "release-gen",
		window: func(s *System, r *Replica, p int) bool {
			return s.sh.word(wReleaseGen) != r.park.gen && notParkedAt(s, r, p)
		},
		flip: func(t *testing.T, s *System, r *Replica, p int) {
			flipWordBits(t, s, wReleaseGen, s.sh.word(wReleaseGen)^r.park.gen)
		},
	},
	{
		name:   "alive-mask",
		window: notParkedAt,
		flip: func(t *testing.T, s *System, r *Replica, p int) {
			flipWordBits(t, s, wAliveMask, 1<<uint(p))
		},
	},
	{
		name: "peer-events",
		window: func(s *System, r *Replica, p int) bool {
			return s.canAdvance(r) && notParkedAt(s, r, p)
		},
		flip: func(t *testing.T, s *System, r *Replica, p int) {
			flipWordBits(t, s, repWordIndex(p, rwEvents), 1<<40)
		},
	},
	{
		// Every alive replica has arrived and parked, and the next
		// evaluation would complete the rendezvous: a corrupted arrival
		// blocks it until the spin budget names a straggler.
		name: "peer-arrive-gen",
		window: func(s *System, r *Replica, p int) bool {
			gen := r.park.gen
			if s.sh.word(wReleaseGen) == gen {
				return false
			}
			for m := s.aliveMask(); m != 0; m &= m - 1 {
				q := bits.TrailingZeros64(m)
				if s.sh.repWord(q, rwArriveGen) != gen || s.sh.repWord(q, rwParkedGen) != gen {
					return false
				}
			}
			return true
		},
		flip: func(t *testing.T, s *System, r *Replica, p int) {
			flipWordBits(t, s, repWordIndex(p, rwArriveGen), 1)
		},
	},
	{
		name:  "vote-release",
		event: true,
		window: func(s *System, r *Replica, p int) bool {
			return s.sh.word(wVoteRelease) < r.park.ev && s.sh.repWord(p, rwVoteEvent) < r.park.ev
		},
		flip: func(t *testing.T, s *System, r *Replica, p int) {
			flipWordBits(t, s, wVoteRelease, 1<<62)
		},
	},
	{
		// p is the only replica the vote still waits for.
		name:  "peer-vote-event",
		event: true,
		window: func(s *System, r *Replica, p int) bool {
			for m := s.aliveMask(); m != 0; m &= m - 1 {
				q := bits.TrailingZeros64(m)
				if (s.sh.repWord(q, rwVoteEvent) < r.park.ev) != (q == p) {
					return false
				}
			}
			return true
		},
		flip: func(t *testing.T, s *System, r *Replica, p int) {
			flipWordBits(t, s, repWordIndex(p, rwVoteEvent), 1<<40)
		},
	},
}

// parkedRep reports whether r's core is parked at a barrier of the kind
// the flip targets.
func parkedRep(r *Replica, event bool) bool {
	if r.Core().State != machine.CoreParked {
		return false
	}
	if event {
		return r.park.kind == parkEventVote
	}
	return r.park.kind == parkRendezvous
}

// findFlipWindow steps a and b in lockstep until some replica r of a is
// parked at the barrier kind f targets with an alive peer p inside f's
// window. The two systems are built alike, so they stay identical.
func findFlipWindow(t *testing.T, a, b *System, f frameworkFlip) (r *Replica, p int) {
	t.Helper()
	for i := 0; i < 5_000_000; i++ {
		a.m.Step()
		b.m.Step()
		if a.halted || a.finished {
			break
		}
		for _, r := range a.reps {
			if !parkedRep(r, f.event) {
				continue
			}
			for m := a.aliveMask(); m != 0; m &= m - 1 {
				if p := bits.TrailingZeros64(m); p != r.ID && f.window(a, r, p) {
					return r, p
				}
			}
		}
	}
	t.Fatalf("no %s window found", f.name)
	return nil, 0
}

// parkEnd steps s until replica rid leaves the park it is in now and
// returns the machine cycle it left at (0 when it is still parked after
// limit cycles).
func parkEnd(s *System, rid int, limit int) uint64 {
	r := s.reps[rid]
	desc, start := r.park, r.barrierStart
	for i := 0; i < limit; i++ {
		s.m.Step()
		if r.Core().State != machine.CoreParked || r.park != desc || r.barrierStart != start {
			return s.m.Now()
		}
	}
	return 0
}

// TestParkMemoShadowFrameworkFlips flips framework-page words — release
// markers, the alive mask, a peer's published time, arrival and vote
// event — while a replica waits at a barrier, under LC-DMR, masking
// LC-TMR and CC-DMR. Every evaluation the park memo skips is re-checked
// against the full condition, and each flip must visibly change the run
// against an unflipped twin: the waiter wakes at a different cycle, or
// the detections differ.
func TestParkMemoShadowFrameworkFlips(t *testing.T) {
	configs := []struct {
		name string
		cfg  Config
	}{
		{"lc-dmr", Config{Mode: ModeLC, Replicas: 2}},
		{"lc-tmr-masking", Config{Mode: ModeLC, Replicas: 3, Masking: true}},
		{"cc-dmr", Config{Mode: ModeCC, Replicas: 2}},
	}
	prog := burstLoop(t, 120, 150)
	ps := installParkShadow(t)
	for _, c := range configs {
		for _, f := range frameworkFlips {
			t.Run(c.name+"/"+f.name, func(t *testing.T) {
				cfg := c.cfg
				cfg.Sig = SigSync
				cfg.TickCycles = 5_000
				cfg.BarrierTimeout = 40_000
				cfg.PartitionBytes = 1 << 20
				a, b := newSys(t, cfg, prog), newSys(t, cfg, prog)
				r, p := findFlipWindow(t, a, b, f)
				f.flip(t, a, r, p)
				limit := int(4 * cfg.BarrierTimeout)
				endA, endB := parkEnd(a, r.ID, limit), parkEnd(b, r.ID, limit)
				_ = a.Run(100_000_000)
				_ = b.Run(100_000_000)
				t.Logf("waiter %d, peer %d: wakes at cycle %d (unflipped %d); detections %v (unflipped %v)",
					r.ID, p, endA, endB, a.Detections(), b.Detections())
				if endA == endB && reflect.DeepEqual(a.Detections(), b.Detections()) {
					t.Fatalf("flip of %s (waiter %d, peer %d) was not observed: wake at cycle %d in both runs, detections %v",
						f.name, r.ID, p, endA, a.Detections())
				}
			})
		}
	}
	ps.check(t)
}

// parkWhilePeerRuns builds an LC-DMR system on an endless loop in which
// replica 0 waits at a rendezvous that replica 1 opened but never joins:
// replica 1 keeps running, and only replica 0 is kicked, arrives and
// parks.
func parkWhilePeerRuns(t *testing.T) (*System, *Replica) {
	t.Helper()
	s := newSys(t, Config{Mode: ModeLC, Replicas: 2}, cpuLoop(t, 1<<40))
	for i := 0; i < 2_000; i++ {
		s.m.Step()
	}
	s.requestSync(1, syncIRQ, 0)
	r := s.reps[0]
	for i := 0; i < 10_000 && !parkedRep(r, false); i++ {
		s.m.Step()
	}
	if !parkedRep(r, false) {
		t.Fatal("replica 0 never parked at the rendezvous")
	}
	return s, r
}

// TestParkMemoKeyCanAdvance pins canAdvance in the memo key. It is
// kernel scheduling state, outside the framework page, so a change to it
// alone must force a full evaluation: here it turns a waiter that a peer
// has overtaken from "stay parked" into "resume and catch up".
func TestParkMemoKeyCanAdvance(t *testing.T) {
	ps := installParkShadow(t)
	s, r := parkWhilePeerRuns(t)
	r.finished = true // canAdvance false: being overtaken cannot wake it
	t0 := s.sh.readTime(1)
	t0.Events += 5
	s.sh.publishTime(1, t0)
	for i := 0; i < 10; i++ {
		s.m.Step()
	}
	if !parkedRep(r, false) {
		t.Fatal("replica 0 woke while it could not advance")
	}
	r.finished = false
	s.m.Step()
	if parkedRep(r, false) {
		t.Fatal("replica 0 stayed parked after canAdvance turned true with a peer ahead")
	}
	ps.check(t)
}

// TestFrameworkPageLayout checks that every framework word and the blocks
// of maxReplicas replicas fit in the first page of the shared region —
// the page whose generation the park memo keys on.
func TestFrameworkPageLayout(t *testing.T) {
	if wVoteOutcome >= repBlockBase || rwParkedGen >= repBlockWords {
		t.Fatalf("framework words overlap the replica blocks")
	}
	if end := (repBlockBase + maxReplicas*repBlockWords) * 8; end > frameworkPageBytes {
		t.Fatalf("%d replica blocks end at byte %d, past the %d-byte framework page", maxReplicas, end, frameworkPageBytes)
	}
	if frameworkPageBytes > inputOff {
		t.Fatalf("framework page overlaps the input buffer")
	}
}

func TestFrameworkPageRejectsExtraReplica(t *testing.T) {
	prof := machine.X86()
	prof.Cores = maxReplicas + 1
	cfg := Config{Mode: ModeLC, Replicas: maxReplicas, Profile: prof, PartitionBytes: 1 << 20}
	if _, err := NewSystem(cfg); err != nil {
		t.Fatalf("%d replicas rejected: %v", maxReplicas, err)
	}
	cfg.Replicas++
	if _, err := NewSystem(cfg); err == nil {
		t.Fatalf("%d replicas accepted; their shared blocks do not fit the framework page", cfg.Replicas)
	}
}

// TestParkedStepAllocs guards the barrier wait: stepping an LC-DMR
// machine while one replica is parked at a rendezvous and its peer runs
// allocates nothing.
func TestParkedStepAllocs(t *testing.T) {
	s, r := parkWhilePeerRuns(t)
	const cycles = 1_000
	allocs := testing.AllocsPerRun(5, func() {
		for i := 0; i < cycles; i++ {
			s.m.Step()
		}
	})
	if !parkedRep(r, false) || s.reps[1].Core().State != machine.CoreRunning {
		t.Fatal("the park ended during the measurement")
	}
	if allocs != 0 {
		t.Fatalf("%v allocations per %d parked cycles, want 0", allocs, cycles)
	}
}
