package conformance

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/ident"
	"repro/internal/mobility"
	"repro/internal/obs"
	"repro/internal/space"
)

// These tests pin the inbox-signature incarnation stamping (senderVer.gen)
// across roster slot recycling. The eager execution never reads a
// signature, so it is the oracle: if a removed-and-readded node — whose
// state version counter restarts from scratch — or a different node
// recycling the departed one's slot could ever produce an inbox signature
// equal to the old occupant's, the skip would replay a
// round whose inbox actually changed, and the record stream would diverge
// from the eager run within a round or two.

// recycleScenario is a walled world whose churn deliberately aims at the
// aliasing hazards: the same victim is removed and re-added a few rounds
// later (same ID, restarted version counter, well inside a boundary-hold
// window), and a brand-new node is inserted in between so the freed slot
// is recycled by a *different* ID first.
type recycleScenario struct {
	w       *space.World
	e       *engine.Engine
	rng     *rand.Rand
	next    ident.NodeID
	victim  ident.NodeID
	parked  space.Point
	pending bool
}

func newRecycleScenario(workers int) *recycleScenario {
	w := space.NewWorld(2.5)
	w.SetWalls([]space.Segment{
		{A: space.Point{X: 10, Y: 0}, B: space.Point{X: 10, Y: 14}},
		{A: space.Point{X: 10, Y: 16}, B: space.Point{X: 10, Y: 30}},
	})
	ids := make([]ident.NodeID, 40)
	for i := range ids {
		ids[i] = ident.NodeID(i + 1)
	}
	m := &mobility.Waypoint{Side: 24, SpeedMin: 0.5, SpeedMax: 2, Pause: 1}
	topo := engine.NewSpatialTopology(w, m, 0.2, ids, rand.New(rand.NewSource(23)))
	e := engine.New(engine.Params{Cfg: core.Config{Dmax: 3}, Seed: 23, Workers: workers}, topo)
	return &recycleScenario{w: w, e: e, rng: rand.New(rand.NewSource(29)), next: 900}
}

func (s *recycleScenario) step(r int) {
	switch r % 5 {
	case 1:
		order := s.e.Order()
		s.victim = order[s.rng.Intn(len(order))]
		s.parked = space.Point{X: s.rng.Float64() * 24, Y: s.rng.Float64() * 24}
		s.e.RemoveNode(s.victim)
		s.w.Remove(s.victim)
		s.pending = true
	case 2:
		// A fresh ID claims the freed slot before the victim returns, so
		// the re-add below lands on a different slot than it held.
		v := s.next
		s.next++
		s.w.Place(v, space.Point{X: s.rng.Float64() * 24, Y: s.rng.Float64() * 24})
		s.e.AddNode(v)
	case 3:
		if s.pending {
			// Same ID back, version counter restarted, two rounds after
			// departure — deep inside any hold its neighbors armed.
			s.w.Place(s.victim, s.parked)
			s.e.AddNode(s.victim)
			s.pending = false
		}
	}
	s.e.StepRound()
}

func runRecycleMode(t *testing.T, workers, rounds int, eager bool) (recs []roundRec, skipped int) {
	t.Helper()
	s := newRecycleScenario(workers)
	s.e.P.EagerCompute = eager
	tr := obs.NewGroupTracker(s.e)
	for r := 0; r < rounds; r++ {
		s.step(r)
		st := tr.Observe()
		sh, mh := hashRound(s.e)
		recs = append(recs, roundRec{
			StateHash: sh, MsgHash: mh, Stats: st,
			Msgs: s.e.MessagesSent, Bytes: s.e.BytesSent, Delivs: s.e.Deliveries,
		})
	}
	return recs, s.e.ComputesSkipped
}

// TestSlotRecycleSignatures runs the recycling churn in both compute
// modes and at 1 and 4 workers and demands bit-identical record
// streams, with the skip demonstrably engaged.
func TestSlotRecycleSignatures(t *testing.T) {
	const rounds = 60
	eager, eSkipped := runRecycleMode(t, 1, rounds, true)
	def, dSkipped := runRecycleMode(t, 1, rounds, false)
	defPar, _ := runRecycleMode(t, 4, rounds, false)
	assertSameStream(t, "eager vs default", eager, def)
	assertSameStream(t, "default-seq vs default-par", def, defPar)
	if eSkipped != 0 {
		t.Fatalf("eager run skipped %d computes", eSkipped)
	}
	if dSkipped == 0 {
		t.Fatal("recycling run never skipped — the hazard path was not exercised")
	}
	t.Logf("recycling churn: skipped %d", dSkipped)
}
