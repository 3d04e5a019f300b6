package core

// SetDebugChase installs a test hook observing catch-up comparisons.
func SetDebugChase(f func(rid int, ltEvents, ltBranches, ltIP, tgtEvents, tgtBranches, tgtIP uint64)) {
	if f == nil {
		debugChase = nil
		return
	}
	debugChase = func(rid int, lt, target logicalTime) {
		f(rid, lt.Events, lt.Branches, lt.IP, target.Events, target.Branches, target.IP)
	}
}

// SetDebugArrive installs a test hook observing rendezvous arrivals.
func SetDebugArrive(f func(rid int, gen, events, branches, ip, now, cycles uint64)) {
	if f == nil {
		debugArrive = nil
		return
	}
	debugArrive = func(rid int, gen uint64, lt logicalTime, now, cycles uint64) {
		f(rid, gen, lt.Events, lt.Branches, lt.IP, now, cycles)
	}
}

// SetDebugStale installs a test hook observing dropped debug traps.
func SetDebugStale(f func(what string, rid int, now uint64)) { debugStale = f }

// SetDebugRelease installs a test hook observing rendezvous releases.
func SetDebugRelease(f func(rid int, gen, pc, r5, rbc, now uint64)) { debugRelease = f }

// SetDebugParkShadow installs a test hook that shadow-checks memoized
// barrier park evaluations: every skipped evaluation also runs the full
// condition and reports both answers.
func SetDebugParkShadow(f func(rid int, memo, full bool)) { debugParkShadow = f }
