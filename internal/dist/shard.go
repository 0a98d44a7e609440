package dist

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/ident"
	"repro/internal/introspect"
	"repro/internal/obs"
	"repro/internal/radio"
	"repro/internal/space"
	"repro/internal/wire"
)

// Config describes one distributed soak run. Every shard process must be
// constructed from an identical Config — the world replication depends
// on it (same seed ⟹ same placement, same mobility stream, same graphs).
type Config struct {
	// Soak is the scenario, shared verbatim with the single-process
	// driver so a 1-vs-N comparison runs the identical world.
	Soak obs.SoakConfig
	// Shards is the number of slab owners (1..64, so a peer set fits a
	// bit mask).
	Shards int
}

// Validate rejects configurations the deterministic split cannot carry:
// the boundary protocol replays broadcasts from replicas, so anything
// that would consume the engines' RNG streams asymmetrically or change
// membership mid-run is out of scope for the distributed wrapper.
func (c *Config) Validate() error {
	if c.Shards < 1 || c.Shards > 64 {
		return fmt.Errorf("dist: %d shards outside [1,64]", c.Shards)
	}
	if c.Soak.JoinRate != 0 || c.Soak.LeaveRate != 0 {
		return fmt.Errorf("dist: membership churn is not distributed")
	}
	if c.Soak.Fault != nil {
		return fmt.Errorf("dist: fault injection is not distributed")
	}
	if c.Soak.Channel != nil {
		return fmt.Errorf("dist: only the Perfect channel is distributed (arbitration must not consume the RNG)")
	}
	if c.Soak.Duration != 0 {
		return fmt.Errorf("dist: wall-clock caps would desynchronize the shard barrier")
	}
	return nil
}

// ownedTopology restricts an engine's membership to the owned slab
// while every graph query still answers from the full replicated world
// — exactly what makes an owned sender's receiver row (and therefore
// its boundary fan-out) identical to the single-process engine's.
type ownedTopology struct {
	*engine.SpatialTopology
	owned []ident.NodeID
}

func (t *ownedTopology) Nodes() []ident.NodeID { return t.owned }

// genVer is a per-peer elision key: the (incarnation, state version)
// signature of the last frame shipped for a sender.
type genVer struct{ gen, ver uint64 }

// ghost is the cached replica of a foreign boundary sender's broadcast.
// An elided entry replays it; a framed entry refreshes it with a freshly
// decoded Message. The previous one is never overwritten: local inboxes
// hold injected deliveries by reference until their next compute (see
// engine.ExternalDelivery).
type ghost struct {
	gen, ver uint64
	msg      *core.Message
}

// pendEntry is one boundary-crossing broadcast of the current tick,
// pointing into the per-tick frame arena.
type pendEntry struct {
	sender   ident.NodeID
	gen, ver uint64
	off, n   int
	mask     uint64 // peers owning ≥1 receiver (bit per shard)
}

// rowMask caches the peer mask derived from a receiver row, validated
// by row identity (same discipline as the engine's receiver cache:
// unchanged head pointer + length ⟹ unchanged content).
type rowMask struct {
	row  []ident.NodeID
	mask uint64
}

// Shard is one slab owner: a full world replica plus an engine over the
// owned population, speaking the ghost-boundary protocol with its peers.
type Shard struct {
	Index int
	N     int

	E     *engine.Engine
	World *space.World
	Topo  *engine.SpatialTopology
	Part  Partition
	Owned []ident.NodeID

	owners map[ident.NodeID]uint8

	tr  Transport
	seq uint64
	reg *introspect.Registry

	// Sender side.
	arena    []byte
	pend     []pendEntry
	batch    wire.BoundaryBatch
	outBufs  [][]byte
	out      [][]byte
	lastSent []map[ident.NodeID]genVer
	masks    []rowMask
	rowBuf   []ident.NodeID

	// Receiver side.
	ghosts map[ident.NodeID]*ghost
	ext    []engine.ExternalDelivery

	// Soak is the normalized scenario (NewShard's copy).
	Soak obs.SoakConfig
	// lastViewVer gates the per-round view sync to the lead (slot-indexed
	// on this shard's engine; see collectSync).
	lastViewVer []uint64
}

// NewShard replicates the scenario world and attaches shard index to
// the transport. cfg must be Validate-clean and identical across peers.
func NewShard(cfg Config, index int, tr Transport) (*Shard, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if index < 0 || index >= cfg.Shards {
		return nil, fmt.Errorf("dist: shard index %d outside %d shards", index, cfg.Shards)
	}
	soak := cfg.Soak
	w, mob, ids := obs.BuildSoakWorld(&soak)
	topo := engine.NewSpatialTopology(w, mob, soak.DT, ids, rand.New(rand.NewSource(soak.Seed)))

	xs := make([]float64, len(ids))
	for i, v := range ids {
		p, ok := w.Pos(v)
		if !ok {
			return nil, fmt.Errorf("dist: node %d not placed by mobility init", v)
		}
		xs[i] = p.X
	}
	part := MakePartition(xs, cfg.Shards)
	owners := make(map[ident.NodeID]uint8, len(ids))
	var owned []ident.NodeID
	for i, v := range ids {
		o := uint8(part.Owner(xs[i]))
		owners[v] = o
		if int(o) == index {
			owned = append(owned, v)
		}
	}

	// engine.New propagates Workers into a *SpatialTopology's world; the
	// owned wrapper hides the concrete type, so propagate by hand.
	if w.Workers == 0 {
		w.Workers = soak.Workers
	}
	e := engine.New(engine.Params{
		Cfg:     core.Config{Dmax: soak.Dmax},
		Seed:    soak.Seed,
		Workers: soak.Workers,
	}, &ownedTopology{SpatialTopology: topo, owned: owned})

	sh := &Shard{
		Index:    index,
		N:        cfg.Shards,
		E:        e,
		World:    w,
		Topo:     topo,
		Part:     part,
		Owned:    owned,
		owners:   owners,
		tr:       tr,
		reg:      e.Introspect(),
		outBufs:  make([][]byte, cfg.Shards),
		out:      make([][]byte, cfg.Shards),
		lastSent: make([]map[ident.NodeID]genVer, cfg.Shards),
		masks:    make([]rowMask, e.SlotCap()),
		ghosts:   make(map[ident.NodeID]*ghost),
		Soak:     soak,
	}
	for p := range sh.lastSent {
		if p != index {
			sh.lastSent[p] = make(map[ident.NodeID]genVer)
		}
	}
	// Every fresh node starts at view version 1 ({self}); the lead mirror
	// is seeded with the same, so nothing needs syncing until a view
	// actually moves.
	sh.lastViewVer = make([]uint64, e.SlotCap())
	for _, v := range owned {
		sh.lastViewVer[e.SlotOf(v)] = 1
	}
	return sh, nil
}

// Tick runs one engine tick with the boundary exchange between the
// build and deliver phases: build locally, ship the owned boundary
// broadcasts, ingest the peers', then finish the tick with the foreign
// receptions injected. The Exchange is the per-tick barrier.
func (sh *Shard) Tick() error {
	sh.E.AdvancePhase()
	txs := sh.E.BuildPhase()
	sh.routeBoundary(txs)
	in, err := sh.tr.Exchange(sh.seq, sh.out)
	if err != nil {
		return err
	}
	ext, err := sh.ingest(in)
	if err != nil {
		return err
	}
	sh.E.FinishTick(ext)
	sh.seq++
	return nil
}

// StepRound runs Tc ticks (one protocol round).
func (sh *Shard) StepRound() error {
	for i := 0; i < sh.E.P.Tc; i++ {
		if err := sh.Tick(); err != nil {
			return err
		}
	}
	return nil
}

// receiverRow answers a sender's full receiver set from the replicated
// world, through the engine's exact decision procedure (the symmetric
// row when servable, the vicinity scan otherwise) so the boundary
// fan-out matches the single-process deliver phase bit for bit. stable
// reports whether the row may be identity-cached (scan results live in
// a reused buffer and may not).
func (sh *Shard) receiverRow(v ident.NodeID) (row []ident.NodeID, stable bool) {
	if row, ok := sh.Topo.ReceiverRow(v); ok {
		return row, true
	}
	sh.rowBuf = sh.Topo.AppendReceivers(v, sh.rowBuf[:0])
	return sh.rowBuf, false
}

func rowsAlias(a, b []ident.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	return len(a) == 0 || &a[0] == &b[0]
}

// foreignMask returns the peers owning at least one receiver of v's
// broadcast, identity-cached per sender slot against the row.
func (sh *Shard) foreignMask(v ident.NodeID) uint64 {
	row, stable := sh.receiverRow(v)
	if slot := sh.E.SlotOf(v); stable && slot >= 0 && int(slot) < len(sh.masks) {
		rm := &sh.masks[slot]
		if rowsAlias(rm.row, row) {
			return rm.mask
		}
		rm.row, rm.mask = row, sh.maskOf(row)
		return rm.mask
	}
	return sh.maskOf(row)
}

func (sh *Shard) maskOf(row []ident.NodeID) uint64 {
	var mask uint64
	for _, u := range row {
		if o := sh.owners[u]; int(o) != sh.Index {
			mask |= 1 << o
		}
	}
	return mask
}

// routeBoundary builds the per-peer boundary batches for this tick's
// broadcasts. A sender appears in a peer's batch exactly when the peer
// owns one of its receivers; the frame is included only when the
// sender's (gen, ver) moved since the last frame shipped to that peer —
// otherwise the entry is elided and the peer replays its ghost.
func (sh *Shard) routeBoundary(txs []radio.Tx) {
	sh.arena = sh.arena[:0]
	sh.pend = sh.pend[:0]
	for _, tx := range txs {
		mask := sh.foreignMask(tx.Sender)
		if mask == 0 {
			continue
		}
		msg, gen, ver, ok := sh.E.BroadcastOf(tx.Sender)
		if !ok {
			continue
		}
		off := len(sh.arena)
		sh.arena = wire.AppendEncode(sh.arena, *msg)
		sh.pend = append(sh.pend, pendEntry{
			sender: tx.Sender, gen: gen, ver: ver,
			off: off, n: len(sh.arena) - off, mask: mask,
		})
	}
	var bytesOut, frames, elided uint64
	for p := 0; p < sh.N; p++ {
		if p == sh.Index {
			sh.out[p] = nil
			continue
		}
		b := &sh.batch
		b.Shard = sh.Index
		b.Seq = sh.seq
		b.Entries = b.Entries[:0]
		for i := range sh.pend {
			pe := &sh.pend[i]
			if pe.mask&(1<<uint(p)) == 0 {
				continue
			}
			ent := wire.BoundaryEntry{Sender: pe.sender, Gen: pe.gen, Ver: pe.ver}
			sig := genVer{pe.gen, pe.ver}
			if sh.lastSent[p][pe.sender] != sig {
				ent.Frame = sh.arena[pe.off : pe.off+pe.n]
				sh.lastSent[p][pe.sender] = sig
				frames++
			} else {
				elided++
			}
			b.Entries = append(b.Entries, ent)
		}
		if len(b.Entries) == 0 {
			// An empty batch is an empty payload: peers skip decoding and
			// interior-only ticks cost no header bytes.
			sh.out[p] = nil
			continue
		}
		sh.outBufs[p] = wire.AppendBoundaryBatch(sh.outBufs[p][:0], *b)
		sh.out[p] = sh.outBufs[p]
		bytesOut += uint64(len(sh.outBufs[p]))
	}
	sh.reg.Add(introspect.CtrBoundaryBytesSent, bytesOut)
	sh.reg.Add(introspect.CtrBoundaryFrames, frames)
	sh.reg.Add(introspect.CtrBoundaryFramesElided, elided)
}

// ingest decodes the peers' batches in fixed shard order and expands
// them into external deliveries: for each entry the receiver set is
// re-derived from the local world replica and intersected with the
// owned slab. Delivery order across senders is irrelevant to the engine
// (the inbox is per-sender last-write-wins and the compute fold sorts
// senders), but the fixed order keeps the trace canonical regardless.
func (sh *Shard) ingest(in [][]byte) ([]engine.ExternalDelivery, error) {
	sh.ext = sh.ext[:0]
	var bytesIn, ghostUpd uint64
	for p := 0; p < sh.N; p++ {
		if p == sh.Index || len(in[p]) == 0 {
			continue
		}
		bytesIn += uint64(len(in[p]))
		b, err := wire.DecodeBoundaryBatch(in[p])
		if err != nil {
			return nil, fmt.Errorf("dist: shard %d: batch from %d: %w", sh.Index, p, err)
		}
		if b.Shard != p || b.Seq != sh.seq {
			return nil, fmt.Errorf("dist: shard %d: batch header (%d, %d) from peer %d at seq %d",
				sh.Index, b.Shard, b.Seq, p, sh.seq)
		}
		for _, ent := range b.Entries {
			g := sh.ghosts[ent.Sender]
			if ent.Frame != nil {
				m, err := wire.Decode(ent.Frame)
				if err != nil {
					return nil, fmt.Errorf("dist: shard %d: frame for %d from %d: %w", sh.Index, ent.Sender, p, err)
				}
				if g == nil {
					g = &ghost{}
					sh.ghosts[ent.Sender] = g
				}
				g.gen, g.ver, g.msg = ent.Gen, ent.Ver, &m
				ghostUpd++
			} else if g == nil || g.gen != ent.Gen || g.ver != ent.Ver {
				return nil, fmt.Errorf("dist: shard %d: elided entry for %d from %d without a matching ghost",
					sh.Index, ent.Sender, p)
			}
			row, _ := sh.receiverRow(ent.Sender)
			for _, u := range row {
				if int(sh.owners[u]) == sh.Index {
					sh.ext = append(sh.ext, engine.ExternalDelivery{
						To: u, From: ent.Sender, Gen: ent.Gen, Ver: ent.Ver, Msg: g.msg,
					})
				}
			}
		}
	}
	sh.reg.Add(introspect.CtrBoundaryBytesRecv, bytesIn)
	sh.reg.Add(introspect.CtrGhostUpdates, ghostUpd)
	sh.reg.Add(introspect.CtrExtDeliveries, uint64(len(sh.ext)))
	return sh.ext, nil
}
