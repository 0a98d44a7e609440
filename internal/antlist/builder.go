package antlist

import "repro/internal/ident"

// Builder composes ancestor lists inside a recycled arena: the per-compute
// fold (Reset, then one Ant per checked sender) runs entirely in two
// double-buffered entry arenas with no per-operation allocation, and a
// single commit-time copy (List.Publish on the final View) produces the
// immutable list a node stores and broadcasts — which itself degenerates to
// zero copies when the round left the list unchanged. A Builder carries
// nothing from one round to the next, so drivers recycle one per worker
// (core.Workspace embeds it; the engine keeps one per shard); a Builder
// must not be used from two goroutines at once.
//
// The merge semantics replicate the nested reference operators (RefList in
// reference.go) bit for bit: position-wise union with the strongest mark
// winning inside a position, every node kept only at its smallest position
// with the mark it has there, interior empty sets preserved, trailing empty
// sets trimmed. FuzzAntBuilder pins the equivalence.
type Builder struct {
	ents []ident.Entry
	offs []int32 // always offs[0] == 0; len == positions+1
	// spare arena the next merge writes into before the buffers swap.
	spareEnts []ident.Entry
	spareOffs []int32
	// round arena for Filter results: cleaned received lists live here for
	// the duration of one fold round; Reset recycles it.
	filtEnts []ident.Entry
	filtOffs []int32
	// seen is the large-merge dedup set (reused across merges): group-sized
	// lists dedup with an allocation-free prefix scan, but a merge past 32
	// entries — dense sweeps, hostile wide frames — switches to the map so
	// the fold stays linear, mirroring Normalize's small/large split.
	seen map[ident.NodeID]bool
}

// Reset makes the builder hold the singleton list (owner) — listv ← (v),
// line 24 of compute(). The round arena (Filter results) is untouched: a
// re-fold within one round may Reset while cleaned lists are still live.
func (b *Builder) Reset(owner ident.Entry) {
	b.ents = append(b.ents[:0], owner)
	b.offs = append(b.offs[:0], 0, 1)
}

// BeginRound is Reset plus recycling of the round arena: every List a
// prior Filter returned is invalidated. Call it exactly once per compute,
// before the round's first Filter.
func (b *Builder) BeginRound(owner ident.Entry) {
	b.Reset(owner)
	b.filtEnts = b.filtEnts[:0]
	b.filtOffs = b.filtOffs[:0]
}

// Filter returns l with only the entries keep accepts, every position kept
// in place (possibly emptied), like List.FilterEntries — but a rejecting
// pass writes into the builder's round arena instead of allocating: the
// result is valid until the builder's next BeginRound, which is exactly
// the lifetime of a cleaned received list inside one compute. When nothing
// is rejected l itself is returned.
func (b *Builder) Filter(l List, keep func(ident.Entry) bool) List {
	if !l.rejectsAny(keep) {
		return l
	}
	se, so := len(b.filtEnts), len(b.filtOffs)
	b.filtOffs = append(b.filtOffs, int32(se))
	b.filtEnts, b.filtOffs = appendFiltered(b.filtEnts, b.filtOffs, l, keep)
	out := List{ents: b.filtEnts[se:len(b.filtEnts):len(b.filtEnts)], offs: b.filtOffs[so:]}
	for i := range out.offs {
		out.offs[i] -= int32(se)
	}
	return out
}

// Load makes the builder hold a copy of l. The argument may be any list;
// builder operations never touch its storage.
func (b *Builder) Load(l List) {
	b.ents = append(b.ents[:0], l.ents...)
	b.offs = append(b.offs[:0], 0)
	for i := 1; i < len(l.offs); i++ {
		b.offs = append(b.offs, l.offs[i])
	}
}

// Ant folds o into the builder at one hop more: b ← b ⊕ r(o), the
// r-operator applied once per (node, checked sender) per compute. o must
// not alias the builder's own storage (a View of this builder).
func (b *Builder) Ant(o List) { b.merge(o, 1) }

// Merge folds o into the builder position-wise: b ← b ⊕ o. Same aliasing
// rule as Ant.
func (b *Builder) Merge(o List) { b.merge(o, 0) }

// merge computes b ⊕ (o shifted by shift positions) into the spare arena
// and swaps the buffers: position i of the result is the union of b's
// position i and o's position i-shift, with each ID kept only at its
// smallest result position (the union's strongest mark at that position),
// and the empty tail trimmed — exactly Union-then-Normalize of the nested
// reference.
func (b *Builder) merge(o List, shift int) {
	bn := len(b.offs) - 1
	if bn < 0 {
		bn = 0
	}
	n := bn
	if o.Len()+shift > n {
		n = o.Len() + shift
	}
	// Dedup strategy: the prefix scan is allocation-free and fastest at
	// group sizes; past 32 total entries the reusable seen-map keeps the
	// merge linear (the IDs of one position walk out strictly ascending,
	// so marking at emission is equivalent to testing earlier positions).
	large := len(b.ents)+o.NodeCount() > 32
	if large {
		if b.seen == nil {
			b.seen = make(map[ident.NodeID]bool, len(b.ents)+o.NodeCount())
		} else {
			clear(b.seen)
		}
	}
	de := b.spareEnts[:0]
	do := append(b.spareOffs[:0], 0)
	for i := 0; i < n; i++ {
		var x, y Set
		if i < bn {
			x = Set(b.ents[b.offs[i]:b.offs[i+1]])
		}
		if j := i - shift; j >= 0 && j < o.Len() {
			y = o.At(j)
		}
		prev := len(de) // entries at strictly earlier result positions
		xi, yi := 0, 0
		for xi < len(x) || yi < len(y) {
			var e ident.Entry
			switch {
			case yi >= len(y) || (xi < len(x) && x[xi].ID < y[yi].ID):
				e = x[xi]
				xi++
			case xi >= len(x) || y[yi].ID < x[xi].ID:
				e = y[yi]
				yi++
			default: // same ID on both sides: strongest mark wins
				e = ident.Entry{ID: x[xi].ID, Mark: x[xi].Mark.Max(y[yi].Mark)}
				xi, yi = xi+1, yi+1
			}
			if large {
				if !b.seen[e.ID] {
					b.seen[e.ID] = true
					de = append(de, e)
				}
			} else if !entriesHave(de[:prev], e.ID) {
				de = append(de, e)
			}
		}
		do = append(do, int32(len(de)))
	}
	for n > 0 && do[n] == do[n-1] {
		n--
	}
	de, do = de[:do[n]], do[:n+1]
	b.ents, b.spareEnts = de, b.ents
	b.offs, b.spareOffs = do, b.offs
}

// entriesHave reports whether id appears among ents.
func entriesHave(ents []ident.Entry, id ident.NodeID) bool {
	for _, e := range ents {
		if e.ID == id {
			return true
		}
	}
	return false
}

// View returns the builder's current content as a zero-copy List view.
// The view shares the builder's arena: it is valid only until the next
// builder operation and must be detached with Publish (or Clone) before
// being stored anywhere that outlives the round.
func (b *Builder) View() List {
	if len(b.offs) <= 1 {
		return List{}
	}
	return List{ents: b.ents, offs: b.offs}
}
