package rcoe_test

import (
	"sync/atomic"
	"testing"

	"rcoe/internal/core"
)

// TestParkMemoShadowDeterminismScenarios runs every differential
// determinism scenario with all accelerators on and fully naive, with the
// park-memo shadow check installed: each barrier wait evaluation the memo
// skips is also evaluated in full, and the two answers must agree. The
// naive run evaluates every parked cycle. The scenarios cover LC and CC,
// DMR and TMR, a masking downgrade, and memory, register and hard-fault
// campaigns that flip bits in the framework page.
func TestParkMemoShadowDeterminismScenarios(t *testing.T) {
	var skips, mismatches atomic.Int64
	core.SetDebugParkShadow(func(rid int, memo, full bool) {
		skips.Add(1)
		if memo != full {
			mismatches.Add(1)
		}
	})
	defer core.SetDebugParkShadow(nil)

	for _, v := range []hostVariant{hostVariants[0], hostVariants[len(hostVariants)-1]} {
		for _, p := range table2Programs {
			for _, c := range table2Configs {
				runTable2Kernel(t, c.cfg, p.prog, v)
			}
		}
		runKVUnderYCSB(t, v)
		runMaskingDowngrade(t, v)
		if !testing.Short() {
			runSoakCycle(t, v)
		}
		runMemCampaign(t, v.noEC, v.noSB)
		runRegCampaign(t, v.noEC, v.noSB)
		runHardFaults(t, false, v)
		runHardFaults(t, true, v)
	}

	t.Logf("%d memoized park evaluations shadow-checked", skips.Load())
	if n := mismatches.Load(); n != 0 {
		t.Fatalf("%d memoized park evaluations disagreed with the full condition", n)
	}
	if skips.Load() == 0 {
		t.Fatal("the park memo never skipped an evaluation: the shadow check saw nothing")
	}
}
