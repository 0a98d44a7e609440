package conformance

import (
	"reflect"
	"testing"

	"repro/internal/obs"
)

// These tests pin the activity-driven compute skip (engine phase 5) to
// the eager execution: Params.EagerCompute disables the skip, and the
// full per-round record stream — protocol state, broadcast contents,
// Ω-partition statistics, traffic counters — must be bit-identical with
// it on and off, sequentially and at 4 workers, on both the churning
// walled world and the mostly-parked commuter world. They also assert the
// skip actually engages (a conformance pass that silently never skips
// proves nothing).

// runMode is run() with the oracle off and the compute mode explicit
// (eager: every compute executed; otherwise the activity skip); it also
// returns the engine's compute counters.
func runMode(t *testing.T, workers, rounds int, eager bool) (recs []roundRec, ran, skipped int) {
	t.Helper()
	s := newScenario(workers, false)
	s.e.P.EagerCompute = eager
	tr := obs.NewGroupTracker(s.e)
	for r := 0; r < rounds; r++ {
		s.step(r, false)
		st := tr.Observe()
		sh, mh := hashRound(s.e)
		recs = append(recs, roundRec{
			StateHash: sh, MsgHash: mh, Stats: st,
			Msgs: s.e.MessagesSent, Bytes: s.e.BytesSent, Delivs: s.e.Deliveries,
		})
	}
	return recs, s.e.ComputesRun, s.e.ComputesSkipped
}

// runCommuterMode is the same over the commuter scenario (fixed
// membership, 92% parked — the regime the skip is built for).
func runCommuterMode(t *testing.T, workers, rounds int, eager bool) (recs []roundRec, ran, skipped int) {
	t.Helper()
	e := commuterScenario(workers, false)
	e.P.EagerCompute = eager
	tr := obs.NewGroupTracker(e)
	for r := 0; r < rounds; r++ {
		e.StepRound()
		st := tr.Observe()
		sh, mh := hashRound(e)
		recs = append(recs, roundRec{
			StateHash: sh, MsgHash: mh, Stats: st,
			Msgs: e.MessagesSent, Bytes: e.BytesSent, Delivs: e.Deliveries,
		})
	}
	return recs, e.ComputesRun, e.ComputesSkipped
}

func assertSameStream(t *testing.T, name string, a, b []roundRec) {
	t.Helper()
	for r := range a {
		if !reflect.DeepEqual(a[r], b[r]) {
			t.Fatalf("%s: round %d diverged:\na: %+v\nb: %+v", name, r+1, a[r], b[r])
		}
	}
}

// TestSkipMatchesEagerCompute pins the skip on the churning walled world:
// eager and default executions produce bit-identical record streams, the
// eager run never skips, and the default run does.
func TestSkipMatchesEagerCompute(t *testing.T) {
	eager, _, eSkipped := runMode(t, 1, 60, true)
	def, dRan, dSkipped := runMode(t, 1, 60, false)
	assertSameStream(t, "eager vs default", eager, def)
	if eSkipped != 0 {
		t.Fatalf("eager run skipped %d computes", eSkipped)
	}
	if dSkipped == 0 {
		t.Fatal("default run never skipped — the fast path is dead and this test proves nothing")
	}
	t.Logf("churning world: ran %d, skipped %d (%.1f%%)", dRan, dSkipped,
		100*float64(dSkipped)/float64(dRan+dSkipped))
}

// TestSkipMatchesEagerComputeParallel crosses the modes with the worker
// count: eager-sequential, default-sequential and default-4-workers must
// agree record for record.
func TestSkipMatchesEagerComputeParallel(t *testing.T) {
	eagerSeq, _, _ := runMode(t, 1, 40, true)
	defSeq, _, _ := runMode(t, 1, 40, false)
	defPar, _, skipped := runMode(t, 4, 40, false)
	assertSameStream(t, "eager-seq vs default-seq", eagerSeq, defSeq)
	assertSameStream(t, "default-seq vs default-par", defSeq, defPar)
	if skipped == 0 {
		t.Fatal("parallel default run never skipped")
	}
}

// TestCommuterSkipMatchesEagerCompute pins the skip in its target regime:
// the mostly-parked commuter world, where after convergence the parked
// majority must be carried by skips while the commuters keep computing —
// and the trace must still be bit-identical to the eager execution at
// any worker count.
func TestCommuterSkipMatchesEagerCompute(t *testing.T) {
	eager, eRan, _ := runCommuterMode(t, 1, 40, true)
	def, dRan, dSkipped := runCommuterMode(t, 1, 40, false)
	defPar, _, _ := runCommuterMode(t, 4, 40, false)
	assertSameStream(t, "eager vs default", eager, def)
	assertSameStream(t, "default-seq vs default-par", def, defPar)
	if dSkipped == 0 {
		t.Fatal("commuter run never skipped")
	}
	if dRan+dSkipped != eRan {
		t.Fatalf("compute boundaries diverged: eager ran %d, default ran %d + skipped %d",
			eRan, dRan, dSkipped)
	}
	frac := float64(dSkipped) / float64(dRan+dSkipped)
	t.Logf("commuter world: ran %d, skipped %d (%.1f%%)", dRan, dSkipped, 100*frac)
	if frac < 0.2 {
		t.Fatalf("skip fraction %.1f%% — the parked majority is not being skipped", 100*frac)
	}
}
