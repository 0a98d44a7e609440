package core

import (
	"slices"

	"repro/internal/antlist"
	"repro/internal/ident"
	"repro/internal/priority"
)

// Message is one GRP broadcast: the sender's ordered list of ancestor
// sets with, for every node appearing in it, that node's priority and the
// priority of its group as known by the sender (the paper sends "listv
// with priorities"; per-entry group priorities are how "group priorities
// are compared" across several hops — see DESIGN.md §3).
//
// The metadata rides in Recs, one flat record per list entry (plus the
// sender itself when a corrupted list omits it), sorted by (ID, Pos).
// This replaced the three per-message maps (node priorities, group
// priorities, quarantines) of the previous representation: one slice
// allocation instead of three map builds per broadcast, binary-search
// lookups instead of map probes on the receive path, and the entry's
// list position carried inline so receivers never re-scan the list for
// it. Both the message and everything it references are immutable once
// built — BuildMessage shares the sender's own list rather than cloning
// it, and drivers cache and share messages between computes (see
// Node.Version).
type Message struct {
	From      ident.NodeID
	List      antlist.List
	Recs      []PrioRec
	GroupPrio priority.P
}

// PrioRec is the per-node metadata record of a Message.
type PrioRec struct {
	ID   ident.NodeID
	Mark ident.Mark
	// HasPrio/HasGroupPrio report whether the sender advertised the
	// corresponding priority. BuildMessage always sets both; decoded
	// frames may carry either half.
	HasPrio      bool
	HasGroupPrio bool
	// Pos is the smallest position at which ID appears in List, or -1
	// when the record's ID is not in the list (the sender's own record on
	// a corrupted list, or map-only records of a decoded frame).
	Pos int16
	// Quar is the remaining quarantine of a not-yet admitted entry, or -1
	// when the sender holds no quarantine record for it.
	Quar      int16
	Prio      priority.P
	GroupPrio priority.P
}

// Rec returns the first record for id (the one with the smallest list
// position) and whether one exists. A linear scan over the ascending
// slice beats a binary search at protocol record counts (a handful of
// entries — one group's worth of nodes); the early exit keeps misses
// cheap too.
func (m Message) Rec(id ident.NodeID) (PrioRec, bool) {
	for i := range m.Recs {
		switch {
		case m.Recs[i].ID == id:
			return m.Recs[i], true
		case m.Recs[i].ID > id:
			return PrioRec{}, false
		}
	}
	return PrioRec{}, false
}

// sortRecs orders records by (ID, Pos) — the invariant Rec relies on.
func sortRecs(recs []PrioRec) {
	slices.SortFunc(recs, func(a, b PrioRec) int {
		switch {
		case a.ID != b.ID:
			if a.ID < b.ID {
				return -1
			}
			return 1
		case a.Pos != b.Pos:
			if a.Pos < b.Pos {
				return -1
			}
			return 1
		default:
			return 0
		}
	})
}

// EncodedSize returns the wire size of the message in bytes (frame header
// + list + two priority records per advertised node + group priority +
// quarantine records), used by the overhead experiment. Duplicate IDs (a
// corrupted list can repeat a node) count once, matching the wire codec's
// map-shaped frame sections.
func (m Message) EncodedSize() int {
	nPrio, nGPrio, nQuar := 0, 0, 0
	prev := ident.None
	first := true
	for _, r := range m.Recs {
		if !first && r.ID == prev {
			continue
		}
		first, prev = false, r.ID
		if r.HasPrio {
			nPrio++
		}
		if r.HasGroupPrio {
			nGPrio++
		}
		if r.Quar >= 0 {
			nQuar++
		}
	}
	// from(4) + groupPrio(12) + list + 12 bytes per priority record +
	// 5 bytes per quarantine record.
	return 4 + 12 + m.List.EncodedSize() + 12*nPrio + 12*nGPrio + 5*nQuar
}

// PrioMaps explodes the records into the map shape of the previous
// message representation: node priorities, group priorities, and the
// positive quarantines. The wire codec's frame sections, the reference
// oracle, and tests consume this; the hot path never does.
func (m Message) PrioMaps() (prios, gprios map[ident.NodeID]priority.P, quars map[ident.NodeID]int) {
	prios = make(map[ident.NodeID]priority.P)
	gprios = make(map[ident.NodeID]priority.P)
	for _, r := range m.Recs {
		if r.HasPrio {
			if _, dup := prios[r.ID]; !dup {
				prios[r.ID] = r.Prio
			}
		}
		if r.HasGroupPrio {
			if _, dup := gprios[r.ID]; !dup {
				gprios[r.ID] = r.GroupPrio
			}
		}
		if r.Quar >= 0 {
			if _, dup := quars[r.ID]; !dup {
				if quars == nil {
					quars = make(map[ident.NodeID]int)
				}
				quars[r.ID] = int(r.Quar)
			}
		}
	}
	return prios, gprios, quars
}

// RecsFromMaps builds the record slice for a message assembled from the
// map shape (the wire codec's decode path and tests): one record per list
// entry plus one per map-only ID, sorted by (ID, Pos). Quarantine values
// are clamped to the record range.
func RecsFromMaps(list antlist.List, prios, gprios map[ident.NodeID]priority.P, quars map[ident.NodeID]int) []PrioRec {
	recs := make([]PrioRec, 0, list.NodeCount()+len(prios))
	inList := make(map[ident.NodeID]bool, list.NodeCount())
	for i := 0; i < list.Len(); i++ {
		for _, e := range list.At(i) {
			inList[e.ID] = true
			r := PrioRec{ID: e.ID, Mark: e.Mark, Pos: int16(i), Quar: -1}
			fillFromMaps(&r, prios, gprios, quars)
			recs = append(recs, r)
		}
	}
	addOnly := func(id ident.NodeID) {
		if inList[id] {
			return
		}
		inList[id] = true
		r := PrioRec{ID: id, Pos: -1, Quar: -1}
		fillFromMaps(&r, prios, gprios, quars)
		recs = append(recs, r)
	}
	for _, id := range sortedKeysP(prios) {
		addOnly(id)
	}
	for _, id := range sortedKeysP(gprios) {
		addOnly(id)
	}
	for _, id := range sortedKeysQ(quars) {
		addOnly(id)
	}
	sortRecs(recs)
	// Records for a duplicated ID must agree on the smallest position the
	// maps-era code observed via List.Position: they already do, because
	// Rec returns the first (smallest-Pos) record.
	return recs
}

func fillFromMaps(r *PrioRec, prios, gprios map[ident.NodeID]priority.P, quars map[ident.NodeID]int) {
	if p, ok := prios[r.ID]; ok {
		r.HasPrio, r.Prio = true, p
	}
	if g, ok := gprios[r.ID]; ok {
		r.HasGroupPrio, r.GroupPrio = true, g
	}
	if q, ok := quars[r.ID]; ok {
		if q < 0 {
			q = 0
		}
		if q > 32767 {
			q = 32767
		}
		r.Quar = int16(q)
	}
}

func sortedKeysP(m map[ident.NodeID]priority.P) []ident.NodeID {
	out := make([]ident.NodeID, 0, len(m))
	for id := range m {
		out = append(out, id)
	}
	slices.Sort(out)
	return out
}

func sortedKeysQ(m map[ident.NodeID]int) []ident.NodeID {
	out := make([]ident.NodeID, 0, len(m))
	for id := range m {
		out = append(out, id)
	}
	slices.Sort(out)
	return out
}
