package graph

import (
	"slices"
	"testing"

	"repro/internal/ident"
)

// graphState is a deep record of everything a reader can observe of a
// graph: its nodes, edge count, generation and every adjacency, plus the
// NeighborsView slices themselves, so a later write through shared
// storage shows up even in views taken before it.
type graphState struct {
	nodes []ident.NodeID
	edges int
	gen   uint64
	adj   map[ident.NodeID][]ident.NodeID
	views map[ident.NodeID][]ident.NodeID
}

func stateOf(g *G) graphState {
	s := graphState{
		nodes: g.Nodes(),
		edges: g.NumEdges(),
		gen:   g.Generation(),
		adj:   map[ident.NodeID][]ident.NodeID{},
		views: map[ident.NodeID][]ident.NodeID{},
	}
	for _, v := range s.nodes {
		s.adj[v] = g.Neighbors(v)
		s.views[v] = g.NeighborsView(v)
	}
	return s
}

// unchanged fails the test when g no longer shows state s.
func (s graphState) unchanged(t *testing.T, g *G, what string) {
	t.Helper()
	if got := g.Nodes(); !slices.Equal(got, s.nodes) {
		t.Fatalf("%s: nodes %v, want %v", what, got, s.nodes)
	}
	if g.NumEdges() != s.edges || g.Generation() != s.gen {
		t.Fatalf("%s: (edges, generation) = (%d, %d), want (%d, %d)",
			what, g.NumEdges(), g.Generation(), s.edges, s.gen)
	}
	for _, v := range s.nodes {
		if got := g.NeighborsView(v); !slices.Equal(got, s.adj[v]) {
			t.Fatalf("%s: NeighborsView(%v) = %v, want %v", what, v, got, s.adj[v])
		}
		if !slices.Equal(s.views[v], s.adj[v]) {
			t.Fatalf("%s: a view of %v taken before the mutation now reads %v, want %v",
				what, v, s.views[v], s.adj[v])
		}
		for _, u := range s.adj[v] {
			if !g.HasEdge(v, u) {
				t.Fatalf("%s: edge %v-%v lost", what, v, u)
			}
		}
	}
	for _, v := range []ident.NodeID{20, 21} {
		if g.HasNode(v) != slices.Contains(s.nodes, v) {
			t.Fatalf("%s: HasNode(%v) = %v", what, v, g.HasNode(v))
		}
	}
}

// TestRestrictAllKeptIsCopyOnWrite pins the sharing contract of an
// all-kept Restrict: the result shares the source's storage, and a
// mutation of either graph — node or edge, growing or shrinking — is
// invisible to the other.
func TestRestrictAllKeptIsCopyOnWrite(t *testing.T) {
	all := func(ident.NodeID) bool { return true }
	edges := []Edge{{1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}, {1, 6}, {2, 5}}
	bases := []struct {
		name  string
		build func() *G
	}{
		// A bulk-built arena graph: rows are adjacent segments of one
		// array, the layout where an in-place row write leaks furthest.
		{"bulk", func() *G { return FromEdges([]ident.NodeID{1, 2, 3, 4, 5, 6}, edges) }},
		// An incrementally built graph: its row table has spare capacity,
		// so node appends on both sides land in the one shared table.
		{"incremental", func() *G {
			g := New()
			for _, e := range edges {
				g.AddEdge(e.U, e.V)
			}
			return g
		}},
	}
	ops := []struct {
		name  string
		apply func(g *G)
		check func(g *G) bool // the mutated graph shows the mutation
	}{
		{"AddNode", func(g *G) { g.AddNode(20) }, func(g *G) bool { return g.HasNode(20) }},
		{"RemoveNode", func(g *G) { g.RemoveNode(2) }, func(g *G) bool { return !g.HasNode(2) && !g.HasEdge(1, 2) }},
		{"AddEdge", func(g *G) { g.AddEdge(1, 4) }, func(g *G) bool { return g.HasEdge(4, 1) }},
		{"AddEdgeNewNode", func(g *G) { g.AddEdge(3, 21) }, func(g *G) bool { return g.HasEdge(21, 3) }},
		{"RemoveEdge", func(g *G) { g.RemoveEdge(2, 3) }, func(g *G) bool { return !g.HasEdge(3, 2) }},
	}
	for _, base := range bases {
		bname := base.name
		for _, op := range ops {
			for _, mutateSource := range []bool{true, false} {
				src := base.build()
				src.Nodes() // populate the sorted-roster cache, which is shared too
				r := src.Restrict(all)
				if !r.Equal(src) || r.Generation() != 0 {
					t.Fatalf("%s %s: all-kept Restrict = %v (generation %d), want a copy of %v", bname, op.name, r, r.Generation(), src)
				}
				mut, other, what := r, src, bname+": "+op.name+" on the result"
				if mutateSource {
					mut, other, what = src, r, bname+": "+op.name+" on the source"
				}
				before := stateOf(other)
				gen := mut.Generation()
				op.apply(mut)
				if !op.check(mut) || mut.Generation() == gen {
					t.Fatalf("%s: the mutation did not take (generation %d → %d)", what, gen, mut.Generation())
				}
				before.unchanged(t, other, what)

				// Now mutate the other side too: the first side must not see it.
				after := stateOf(mut)
				op.apply(other)
				if !op.check(other) {
					t.Fatalf("%s, then on the other graph: the mutation did not take", what)
				}
				after.unchanged(t, mut, what+", then on the other graph")
			}
		}
	}
}

// TestRestrictPartialIsDeepCopy: a keep that drops a node still yields a
// private graph, and the source is not flagged, so its own later
// mutations pay no copy.
func TestRestrictPartialIsDeepCopy(t *testing.T) {
	src := FromEdges([]ident.NodeID{1, 2, 3, 4}, []Edge{{1, 2}, {2, 3}, {3, 4}, {1, 4}})
	r := src.Restrict(func(v ident.NodeID) bool { return v != 4 })
	if src.sharedIdx || src.cowAdj || r.sharedIdx || r.cowAdj {
		t.Fatalf("partial Restrict shares storage: source (%v, %v), result (%v, %v)",
			src.sharedIdx, src.cowAdj, r.sharedIdx, r.cowAdj)
	}
	if r.NumNodes() != 3 || r.NumEdges() != 2 || r.HasNode(4) || r.HasEdge(1, 4) {
		t.Fatalf("partial Restrict = %v, want the path 1-2-3", r)
	}
	before := stateOf(r)
	src.RemoveEdge(1, 2)
	src.AddEdge(2, 4)
	src.RemoveNode(3)
	before.unchanged(t, r, "mutating the source of a partial Restrict")
}
