package core_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/ident"
	"repro/internal/wire"
)

// TestWorkspaceSharedEqualsPrivate pins the Workspace contract: nothing
// survives a round in it. Two copies of one network run the same lossy,
// asynchronous schedule with topology changes; in one copy every node
// computes through a single shared workspace, first dirtied by a foreign
// network's rounds (wider lists, another Dmax, other IDs) and revisited
// by it mid-run, and in the other copy each node keeps a fresh workspace
// of its own. After every compute the two copies of the node must agree
// on everything observable.
func TestWorkspaceSharedEqualsPrivate(t *testing.T) {
	cases := []struct {
		name string
		cfg  core.Config
		seed int64
	}{
		{"quarantine-dmax3", core.Config{Dmax: 3}, 1},
		{"no-quarantine-dmax2", core.Config{Dmax: 2, DisableQuarantine: true}, 2},
		{"dmax1-no-hold-no-debounce", core.Config{Dmax: 1, BoundaryHold: -1, RejectDebounce: -1}, 3},
		{"naive-compat-dmax4", core.Config{Dmax: 4, Compat: core.CompatNaiveSum}, 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(tc.seed))
			g := graph.RandomGeometric(14, 8, 3, rng)
			ids := g.Nodes()
			shared, private := newWSNet(ids, tc.cfg), newWSNet(ids, tc.cfg)
			priv := make(map[ident.NodeID]*core.Workspace, len(ids))
			for _, v := range ids {
				priv[v] = new(core.Workspace)
			}

			var ws core.Workspace
			foreign := newForeignLine()
			foreign.rounds(&ws, 6)

			for round := 0; round < 60; round++ {
				if round%8 == 7 {
					// Topology change: toggle one random pair's link.
					u, v := ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))]
					if u != v {
						if g.HasEdge(u, v) {
							g.RemoveEdge(u, v)
						} else {
							g.AddEdge(u, v)
						}
					}
				}
				if round%10 == 5 {
					foreign.rounds(&ws, 1)
				}
				// Same sends and losses for both copies.
				for _, v := range ids {
					if rng.Float64() >= 0.8 {
						continue
					}
					ms, mp := shared[v].BuildMessage(), private[v].BuildMessage()
					for _, u := range g.Neighbors(v) {
						if rng.Float64() < 0.15 {
							continue
						}
						shared[u].Receive(ms)
						private[u].Receive(mp)
					}
				}
				for _, i := range rng.Perm(len(ids)) {
					v := ids[i]
					if rng.Float64() >= 0.7 {
						continue
					}
					shared[v].ComputeIn(&ws)
					private[v].ComputeIn(priv[v])
					if err := sameObservable(shared[v], private[v], ids); err != nil {
						t.Fatalf("round %d, node %v: shared workspace diverged from private: %v", round, v, err)
					}
				}
			}
			grouped := 0
			for _, n := range shared {
				if len(n.View()) > 1 {
					grouped++
				}
			}
			if grouped == 0 {
				t.Fatal("no node ever formed a group: the scenario exercises nothing")
			}
		})
	}
}

// newWSNet boots one node per ID with the reference oracle armed.
func newWSNet(ids []ident.NodeID, cfg core.Config) map[ident.NodeID]*core.Node {
	nodes := make(map[ident.NodeID]*core.Node, len(ids))
	for _, v := range ids {
		n := core.NewNode(v, cfg)
		n.SelfCheck = true
		nodes[v] = n
	}
	return nodes
}

// foreignLine is the network that dirties a shared workspace: a line of
// twelve nodes at Dmax 6, whose rounds leave long lists, big views and
// many priority records behind in the workspace's buffers.
type foreignLine struct {
	g     *graph.G
	nodes map[ident.NodeID]*core.Node
}

func newForeignLine() *foreignLine {
	g := graph.Line(12)
	f := &foreignLine{g: g, nodes: make(map[ident.NodeID]*core.Node)}
	for _, v := range g.Nodes() {
		// Offset IDs so they never coincide with the tested network's.
		f.nodes[v] = core.NewNode(v+1000, core.Config{Dmax: 6})
	}
	return f
}

func (f *foreignLine) rounds(ws *core.Workspace, k int) {
	for ; k > 0; k-- {
		msgs := make(map[ident.NodeID]core.Message, len(f.nodes))
		for v, n := range f.nodes {
			msgs[v] = n.BuildMessage()
		}
		for _, v := range f.g.Nodes() {
			for _, u := range f.g.Neighbors(v) {
				f.nodes[u].Receive(msgs[v])
			}
		}
		for _, v := range f.g.Nodes() {
			f.nodes[v].ComputeIn(ws)
		}
	}
}

// sameObservable compares everything a driver or observer can read off
// two nodes.
func sameObservable(a, b *core.Node, ids []ident.NodeID) error {
	if a.Version() != b.Version() {
		return fmt.Errorf("version %d vs %d", a.Version(), b.Version())
	}
	if a.RoundQuietness() != b.RoundQuietness() {
		return fmt.Errorf("quietness %v vs %v", a.RoundQuietness(), b.RoundQuietness())
	}
	if !a.List().Equal(b.List()) {
		return fmt.Errorf("list %v vs %v", a.List(), b.List())
	}
	if !slices.Equal(a.View(), b.View()) {
		return fmt.Errorf("view %v vs %v", a.View(), b.View())
	}
	for _, u := range ids {
		if qa, qb := a.QuarantineOf(u), b.QuarantineOf(u); qa != qb {
			return fmt.Errorf("quarantine of %v: %d vs %d", u, qa, qb)
		}
	}
	if ea, eb := wire.Encode(a.BuildMessage()), wire.Encode(b.BuildMessage()); !bytes.Equal(ea, eb) {
		return fmt.Errorf("broadcast %v vs %v", a.BuildMessage(), b.BuildMessage())
	}
	return nil
}
