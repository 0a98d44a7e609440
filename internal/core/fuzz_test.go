package core_test

// Fuzz target for the protocol node's message path: arbitrary bytes are
// decoded as a wire frame (the codec rejects malformed frames — frames
// that parse are the protocol's actual attack surface), fed through
// Receive and Compute with the SelfCheck reference oracle armed, and the
// node's own broadcast is round-tripped through the codec. Two nodes share
// one compute workspace throughout, and a third computes the same input
// through the pooled Compute path as a reference. The node must
// never panic, never break its structural invariants, and its broadcast
// must survive encode/decode semantically intact.

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/ident"
	"repro/internal/sim"
	"repro/internal/wire"
)

// fuzzSeeds collects realistic frames from a short live run plus a few
// pathological hand-built ones.
func fuzzSeeds(f *testing.F) {
	s := sim.NewStatic(sim.Params{Cfg: core.Config{Dmax: 3}, Seed: 4}, graph.Line(5))
	s.StepTicks(12)
	for _, n := range s.Nodes {
		f.Add(wire.Encode(n.BuildMessage()))
	}
	f.Add([]byte{})
	f.Add([]byte{0x52, 0x47, 0x01})
}

func FuzzReceiveComputeBuildRoundTrip(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := wire.Decode(data)
		if err != nil {
			return // malformed frame: rejected before the protocol sees it
		}
		// Two nodes take turns in one shared workspace, as the nodes of an
		// engine shard do; ref computes the same inputs as n through the
		// pooled Compute path and must end up identical.
		var ws core.Workspace
		n := core.NewNode(1, core.Config{Dmax: 3})
		peer := core.NewNode(2, core.Config{Dmax: 3})
		ref := core.NewNode(1, core.Config{Dmax: 3})
		for _, x := range []*core.Node{n, peer, ref} {
			x.SelfCheck = true // cross-validate against the reference oracle
			x.Receive(m)
		}
		n.ComputeIn(&ws)
		peer.ComputeIn(&ws)
		ref.Compute()
		if !bytes.Equal(wire.Encode(n.BuildMessage()), wire.Encode(ref.BuildMessage())) || n.Version() != ref.Version() {
			t.Fatalf("shared workspace diverged: %v vs %v", n, ref)
		}

		// Structural invariants must hold whatever the frame contained.
		if !n.InView(1) {
			t.Fatal("self missing from view")
		}
		l := n.List()
		if l.Owner() != 1 {
			t.Fatalf("list owner %v: %v", l.Owner(), l)
		}
		if l.Len() > 3+1 {
			t.Fatalf("list too long: %v", l)
		}
		view := n.View()
		for i := 1; i < len(view); i++ {
			if view[i-1] >= view[i] {
				t.Fatalf("view not strictly ascending: %v", view)
			}
		}

		// The node's own broadcast round-trips through the codec.
		out := n.BuildMessage()
		if out.EncodedSize() <= 0 {
			t.Fatal("non-positive encoded size")
		}
		dec, err := wire.Decode(wire.Encode(out))
		if err != nil {
			t.Fatalf("own broadcast rejected: %v", err)
		}
		if dec.From != out.From || !dec.List.Equal(out.List) || dec.GroupPrio != out.GroupPrio {
			t.Fatalf("round trip header mismatch: %+v vs %+v", dec, out)
		}
		dp, dg, dq := dec.PrioMaps()
		op, og, oq := out.PrioMaps()
		if !reflect.DeepEqual(dp, op) || !reflect.DeepEqual(dg, og) {
			t.Fatalf("round trip priorities mismatch")
		}
		if len(dq) != len(oq) {
			t.Fatalf("round trip quars mismatch: %v vs %v", dq, oq)
		}

		// A second compute with no traffic detects the departure and
		// shrinks back to a singleton — and must keep the oracle happy.
		peer.Receive(out)
		peer.ComputeIn(&ws)
		n.ComputeIn(&ws)
		if got := n.View(); len(got) != 1 || got[0] != 1 {
			t.Fatalf("silent round must shrink to singleton, got %v", got)
		}

		// Feeding the node its own broadcast (spoofed sender) and a copy
		// under a different sender must also hold up.
		spoof := out
		spoof.From = ident.NodeID(2)
		n.Receive(spoof)
		n.ComputeIn(&ws)
		peer.Receive(spoof)
		peer.ComputeIn(&ws)
	})
}
