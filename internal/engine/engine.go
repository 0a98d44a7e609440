// Package engine is the shared execution substrate under both drivers of
// the GRP reproduction: the deterministic phase-parallel scheduler that
// internal/sim wraps for every experiment, and the topology/membership
// abstractions the live goroutine runtime (internal/runtime) routes
// through.
//
// One Step is five phases:
//
//  1. advance   — the topology moves (mobility), on the global RNG stream;
//  2. build     — every node whose send timer fires assembles its
//     broadcast, fanned out over a worker pool;
//  3. arbitrate — the radio channel decides which receptions succeed, on
//     the global RNG stream;
//  4. deliver   — successful receptions are stored at the receivers,
//     fanned out over the worker pool;
//  5. compute   — every node whose compute timer fires runs the protocol
//     computation, fanned out over the worker pool.
//
// Parallelism is deterministic by construction (in the spirit of
// deterministic parallel frameworks such as Bobpp): node work is sharded
// by NodeID into a fixed number of shards (independent of the worker
// count), every shard is processed sequentially in a canonical order, and
// each shard owns a private RNG stream derived from the seed. Workers
// only ever race for *which* shard they process next, never for the order
// of effects inside a shard, and cross-shard effects (message delivery)
// are partitioned by receiver before the parallel phase starts. A fixed
// seed therefore yields bit-identical traces at any GOMAXPROCS and any
// Workers setting.
//
// Per-node bookkeeping is slot-indexed: the Roster assigns every member a
// stable dense slot for its lifetime (deterministically recycled on
// churn), the timer wheels carry (id, slot) entries, and the hot phases
// index the flat record table directly — the only ID→slot map probes left
// sit at the membership boundary and in delivery resolution, where the
// radio layer's ID-based contract meets the slot world.
//
// The compute phase is activity-driven: a node whose last executed round
// was provably a no-op (core.Node.RoundQuietness) and whose inbox since
// then is identical — tracked as per-sender (incarnation, message
// version) signatures maintained during delivery — replays the no-op in
// O(1) (core.Node.SkipQuietRound / SkipLonelyRound) instead of
// re-deriving it. Tick cost therefore tracks the active set, not the
// roster. Params.EagerCompute disables the skip; traces are bit-identical
// either way, which the conformance suite pins.
//
// Phases 2 and 5 read and write disjoint per-node state (core.Node is
// only ever touched by its own shard's worker; messages are immutable
// once built), so the fan-out needs no locks.
package engine

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/ident"
	"repro/internal/introspect"
	"repro/internal/metrics"
	"repro/internal/radio"
)

// NumShards is the fixed shard count node work is partitioned into. It is
// deliberately independent of Params.Workers and of GOMAXPROCS: per-shard
// state (RNG streams, canonical order) is what makes the parallel trace
// reproducible, so it must not change when the worker count does.
const NumShards = 64

// shardOf maps a node to its shard.
func shardOf(v ident.NodeID) int { return int(uint32(v) % NumShards) }

// ShardOf maps a node to its engine shard — exported for observers
// (internal/obs) that mirror the engine's deterministic fan-out.
func ShardOf(v ident.NodeID) int { return shardOf(v) }

// shardSeed derives shard s's private RNG seed from the run seed
// (splitmix64 finalizer, so neighboring shards get uncorrelated streams).
func shardSeed(seed int64, s int) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*uint64(s+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// Params configures a simulation run.
type Params struct {
	// Cfg is the protocol configuration (Dmax etc.).
	Cfg core.Config
	// Ts is the send period in ticks (τ2); default 1.
	Ts int
	// Tc is the compute period in ticks (τ1 ≥ τ2); default 2·Ts.
	Tc int
	// Channel is the radio model; default radio.Perfect.
	Channel radio.Channel
	// Jitter desynchronizes the nodes' timers with random phase offsets.
	Jitter bool
	// RandomizedSends redraws each node's next send instant after every
	// transmission (uniform in [1, Ts], so the mean period stays ≈ Ts/2
	// + 1): the CSMA-style backoff that makes the fair-channel hypothesis
	// hold on the collision channel — with fixed phases, two aligned
	// neighbors would collide deterministically forever.
	RandomizedSends bool
	// EagerCompute disables the activity-driven compute skip: every due
	// node runs its full Compute even when the round is provably a no-op.
	// The trace is bit-identical either way (the conformance suite pins
	// this); the flag exists for that differential proof and for
	// measuring the skip's effect.
	EagerCompute bool
	// Seed drives all randomness (mobility, channel, jitter, send
	// backoff). The same seed reproduces the same execution bit for bit
	// regardless of Workers.
	Seed int64
	// Workers sets the build/deliver/compute fan-out width; 0 or 1 runs
	// the phases inline (the sequential path), larger values use that
	// many goroutines. The trace is identical either way.
	Workers int
}

func (p *Params) normalize() {
	if p.Ts <= 0 {
		p.Ts = 1
	}
	if p.Tc <= 0 {
		p.Tc = 2 * p.Ts
	}
	if p.Tc < p.Ts {
		panic(fmt.Sprintf("engine: Tc (%d) must be ≥ Ts (%d)", p.Tc, p.Ts))
	}
	if p.Channel == nil {
		p.Channel = radio.Perfect{}
	}
}

// senderVer is one entry of a node's inbox signature: the identity of a
// delivered message without its content. A sender's broadcast is a pure
// function of its state version (core.Node.Version), and the incarnation
// generation disambiguates removed-and-readded nodes whose version
// counters restart — equal signatures therefore imply byte-identical
// buffered message sets.
type senderVer struct {
	id  ident.NodeID
	gen uint64 // sender incarnation (engine membership generation at add)
	ver uint64 // sender state version the delivered broadcast was built at
}

// resolvedDelivery is one reception with the receiver record and message
// resolved on the coordinator, so the parallel deliver phase touches no
// shared maps.
type resolvedDelivery struct {
	to   *nodeRec
	msg  *core.Message
	from senderVer
}

// shardScratch is one shard's reusable per-tick buffers, including the
// compute workspace every node of the shard computes in: a shard is
// processed by one worker at a time, in canonical order, so its nodes
// take turns in one core.Workspace instead of each keeping its own.
type shardScratch struct {
	txs     []radio.Tx
	bytes   int
	deliv   []resolvedDelivery
	ran     int                  // computes executed this tick
	skipped int                  // compute boundaries satisfied by the activity skip
	wakes   []introspect.WakeRec // per-shard wake ring segment (TraceWakes only)
	ws      core.Workspace
}

// cachedMsg is one node's last built broadcast, valid while the node's
// state version is unchanged (a node's message is a pure function of its
// state, which only Compute and LoadState move — see core.Node.Version).
// At Tc = k·Ts this skips k−1 of every k message assemblies. Every
// rebuild allocates a fresh Message and never overwrites the previous
// one: receivers buffer delivered broadcasts by reference
// (core.Node.ReceiveRef), and a receiver that has not computed since a
// delivery must still see the version it was delivered.
type cachedMsg struct {
	m    *core.Message
	size int // EncodedSize, computed once per rebuild
	ver  uint64
}

// nodeRec consolidates the engine's per-node bookkeeping — the protocol
// node, its timer phase, the cached broadcast, the cached receiver set
// and the activity-skip signature — into one slot-indexed record: the
// hot phases reach it by array index from the wheel entries, with no map
// probe at all. A record's mutable fields are only ever written by its
// own shard's worker (or by the coordinator between phases). Records are
// recycled in place when their slot is: identity-bearing fields reset on
// reuse, buffers keep their capacity.
type nodeRec struct {
	n   *core.Node
	id  ident.NodeID // ident.None marks a free slot
	gen uint64       // incarnation stamp (see senderVer)

	phase int

	cm cachedMsg

	recv      []ident.NodeID
	recvEpoch uint64

	// rowRef/rowMem validate recv against a RowTopology row: when the
	// topology serves the same row view (same backing array and length)
	// under an unchanged membership generation, recv is reused without
	// touching the topology's spatial index at all — the per-sender fast
	// path in a mostly-parked world, where delta graph rebuilds share
	// every untouched row. rowRef aliases read-only topology storage.
	rowRef []ident.NodeID
	rowMem uint64

	// Activity-skip state. pending is the inbox signature accumulated
	// since the last compute boundary (ascending by sender, last write
	// wins — mirroring core.Node.Receive); consumed is the signature the
	// last quiet round consumed. When the node's last round was quiet
	// (armed), its version unmoved since (fixVer), and pending equals
	// consumed, the next round provably reproduces itself and is skipped.
	// quiet caches that round's classification (it selects the replay
	// variant); holdExp is the boundary-memory horizon a QuietHeld replay
	// is licensed under — the skip stops one round short of the earliest
	// expiry, so the expiring round always runs in full.
	pending  []senderVer
	consumed []senderVer
	armed    bool
	quiet    core.Quietness
	holdExp  uint64
	fixVer   uint64

	// seeded marks that the node has computed at least once since this
	// slot incarnation — a compute on an unseeded record is attributed to
	// introspect.WakeFresh, every later one to the gate that broke the
	// skip check.
	seeded bool

	// Byzantine override (internal/fault). While lie is non-nil the node
	// broadcasts lie instead of its genuine message: the build phase
	// accounts lieSize bytes and the deliver phase resolves receptions to
	// (lie, lieVer). lieVer has the top bit set and comes from a global
	// monotone sequence, so it can never collide with a genuine state
	// version in a receiver's inbox signature — every installed lie is
	// treated as fresh traffic and wakes quiet receivers, exactly like a
	// real state change at the sender would. The node's own protocol state
	// keeps evolving honestly underneath.
	lie     *core.Message
	lieVer  uint64
	lieSize int
}

// RemovedNode records one departure for the dirty report: the node's
// identity plus the slot it occupied. The slot may already be recycled by
// a later addition within the same window — consumers must treat it as
// "the slot this node held when it left", not as a live index.
type RemovedNode struct {
	ID   ident.NodeID
	Slot int32
}

// Engine is one running simulation.
type Engine struct {
	P     Params
	Topo  Topology
	Nodes map[ident.NodeID]*core.Node

	rng       *rand.Rand // global stream: topology + channel + jitter phases
	shardRNGs [NumShards]*rand.Rand
	tick      int

	// recs is the slot-indexed per-node bookkeeping (see nodeRec), indexed
	// by roster slot; Nodes remains the public protocol-node map,
	// maintained in lockstep.
	recs []nodeRec

	order     *Roster
	memberGen uint64

	sendWheel    *periodicWheel // fixed-phase sends (nil under RandomizedSends)
	sendOneshot  *oneshotWheel  // randomized sends (nil otherwise)
	computeWheel *periodicWheel

	scratch  [NumShards]shardScratch
	txsBuf   []radio.Tx
	delivBuf []radio.Delivery

	// Receiver-cache key: the per-record receiver sets are valid while
	// the topology graph (pointer + mutation generation) and the engine
	// membership stay put; any change bumps recvEpoch, invalidating every
	// record at once.
	recvG     *graph.G
	recvGen   uint64
	recvMem   uint64
	recvEpoch uint64

	snap metrics.SnapshotBuilder

	// Dirty-node reporting for incremental observers (obs.GroupTracker):
	// while enabled, the compute phase appends the slot of every node
	// whose Compute actually ran to its shard's list (shard-local, so the
	// parallel phase needs no locks; skipped no-op rounds are not
	// reported — they provably leave the view untouched), and membership
	// changes are recorded on the coordinator. DrainDirty hands the
	// accumulated report to the observer and resets it.
	dirtyOn       bool
	dirtyComputed [NumShards][]int32
	dirtyAdded    []ident.NodeID
	dirtyRemoved  []RemovedNode

	// lieSeq feeds the per-lie signature versions handed out by SetLie
	// (top bit set, strictly increasing — disjoint from genuine state
	// versions by construction).
	lieSeq uint64

	// reg is the flight recorder: deterministic per-phase counters (the
	// conformance suite pins them bit-identical at any worker count) plus
	// the separately-kept wall-clock phase timings. Always armed — the
	// steady-state cost is a handful of uncontended atomic adds per shard
	// per phase.
	reg *introspect.Registry

	// Wake tracing (TraceWakes): while enabled, the compute phase records
	// every attributed wake into its shard's ring segment and the
	// coordinator merges the segments shard-major into wakeRing — the same
	// recycled-report pattern as DrainDirty.
	traceWakes bool
	wakeRing   []introspect.WakeRec

	// lastDrops is the channel's cumulative drop count at the previous
	// sample, so the arbitrate phase can route per-tick deltas into the
	// registry (radio.DropCounter channels only).
	lastDrops uint64

	// MessagesSent counts broadcasts; BytesSent their encoded sizes;
	// Deliveries successful receptions. ComputesRun counts protocol
	// computes executed; ComputesSkipped the compute boundaries satisfied
	// by the activity-driven skip instead.
	MessagesSent    int
	BytesSent       int
	Deliveries      int
	ComputesRun     int
	ComputesSkipped int
}

// New builds a simulation over the topology with one fresh GRP node per
// topology node.
func New(p Params, topo Topology) *Engine {
	p.normalize()
	e := &Engine{
		P:            p,
		Topo:         topo,
		Nodes:        make(map[ident.NodeID]*core.Node),
		rng:          rand.New(rand.NewSource(p.Seed)),
		order:        NewRoster(),
		computeWheel: newPeriodicWheel(p.Tc),
		recvEpoch:    1, // fresh records (epoch 0) start invalid
		reg:          introspect.NewRegistry(NumShards),
	}
	for s := range e.shardRNGs {
		e.shardRNGs[s] = rand.New(rand.NewSource(shardSeed(p.Seed, s)))
	}
	if p.RandomizedSends {
		e.sendOneshot = newOneshotWheel(p.Ts)
	} else {
		e.sendWheel = newPeriodicWheel(p.Ts)
	}
	// Spatial topologies rebuild their graph with the same worker width
	// as the engine's phases (the sharded build is deterministic at any
	// width, so this is purely a throughput knob).
	if st, ok := topo.(*SpatialTopology); ok && st.World.Workers == 0 {
		st.World.Workers = p.Workers
	}
	for _, v := range topo.Nodes() {
		e.addNode(v)
	}
	return e
}

// NewStatic is shorthand for a fixed-graph simulation.
func NewStatic(p Params, g *graph.G) *Engine {
	return New(p, &StaticTopology{G: g})
}

func (e *Engine) addNode(v ident.NodeID) {
	slot, _ := e.order.Add(v)
	e.memberGen++
	if int(slot) >= len(e.recs) {
		e.recs = append(e.recs, nodeRec{})
	}
	rec := &e.recs[slot]
	// Recycle the record in place: identity-bearing fields reset, buffers
	// (receiver cache, signatures) keep their capacity.
	rec.n = core.NewNode(v, e.P.Cfg)
	rec.id = v
	rec.gen = e.memberGen
	rec.phase = 0
	rec.cm = cachedMsg{ver: ^uint64(0)} // no broadcast built yet
	rec.recv = rec.recv[:0]
	rec.recvEpoch = 0
	rec.rowRef = nil
	rec.rowMem = 0
	rec.pending = rec.pending[:0]
	rec.consumed = rec.consumed[:0]
	rec.armed, rec.quiet, rec.holdExp = false, core.QuietNone, 0
	rec.fixVer = 0
	rec.seeded = false
	rec.lie, rec.lieVer, rec.lieSize = nil, 0, 0
	e.Nodes[v] = rec.n
	if e.P.Jitter {
		rec.phase = e.rng.Intn(e.P.Tc)
	}
	ent := wheelEnt{id: v, slot: slot}
	if e.P.RandomizedSends {
		e.sendOneshot.schedule(ent, e.tick+e.shardRNGs[shardOf(v)].Intn(e.P.Ts))
	} else {
		e.sendWheel.add(ent, rec.phase)
	}
	e.computeWheel.add(ent, rec.phase)
	if e.dirtyOn {
		e.dirtyAdded = append(e.dirtyAdded, v)
	}
}

// AddNode introduces a fresh node mid-run (it must already be present in
// the topology, e.g. placed in the world or added to the static graph).
func (e *Engine) AddNode(v ident.NodeID) {
	if _, ok := e.Nodes[v]; ok {
		return
	}
	e.addNode(v)
}

// RemoveNode makes a node leave: it stops sending and computing, and its
// slot is freed for deterministic recycling. The caller removes it from
// the topology.
func (e *Engine) RemoveNode(v ident.NodeID) {
	slot, ok := e.order.Remove(v)
	if !ok {
		return
	}
	rec := &e.recs[slot]
	delete(e.Nodes, v)
	e.memberGen++
	if e.P.RandomizedSends {
		e.sendOneshot.removeEverywhere(v)
	} else {
		e.sendWheel.remove(v, rec.phase)
	}
	e.computeWheel.remove(v, rec.phase)
	rec.n = nil
	rec.id = ident.None
	rec.lie, rec.lieVer, rec.lieSize = nil, 0, 0
	if e.dirtyOn {
		e.dirtyRemoved = append(e.dirtyRemoved, RemovedNode{ID: v, Slot: slot})
	}
}

// SetLie arms a Byzantine override on member v: until ClearLie (or v's
// departure), every broadcast v's send timer emits carries m instead of
// v's genuine message, while v's own protocol state keeps evolving
// honestly from what it hears. m must be a well-formed Message with
// m.From == v (internal/fault forges them through a wire codec
// round-trip). The engine retains the pointer and delivers it by
// reference: every receiver's inbox keeps it until that receiver's next
// compute, even past ClearLie or a later SetLie. The caller must
// therefore never mutate m afterwards — install a fresh message to change
// the lie.
//
// Like AddNode/RemoveNode, SetLie is a coordinator-side membership-layer
// mutation: it must be called between Steps (the fault injector applies
// it at round boundaries), never from inside a phase — that alignment is
// what keeps chaos traces bit-identical at any worker count. It reports
// whether v is currently a member.
func (e *Engine) SetLie(v ident.NodeID, m *core.Message) bool {
	slot := e.order.SlotOf(v)
	if slot < 0 {
		return false
	}
	if m.From != v {
		panic(fmt.Sprintf("engine: SetLie(%v) with message from %v", v, m.From))
	}
	e.lieSeq++
	rec := &e.recs[slot]
	rec.lie = m
	rec.lieVer = 1<<63 | e.lieSeq
	rec.lieSize = m.EncodedSize()
	return true
}

// ClearLie disarms v's Byzantine override; genuine broadcasts resume at
// v's next send. Like SetLie it must only be called between Steps.
func (e *Engine) ClearLie(v ident.NodeID) {
	if slot := e.order.SlotOf(v); slot >= 0 {
		rec := &e.recs[slot]
		rec.lie, rec.lieVer, rec.lieSize = nil, 0, 0
	}
}

// Lying reports whether v currently has a Byzantine override armed.
func (e *Engine) Lying(v ident.NodeID) bool {
	slot := e.order.SlotOf(v)
	return slot >= 0 && e.recs[slot].lie != nil
}

// TrackDirty enables dirty-node reporting. Observers call it once at
// attach time and then DrainDirty after every observation window; nodes
// that computed before tracking was enabled are not reported (a fresh
// observer must do one full sync on its first observation anyway).
func (e *Engine) TrackDirty() { e.dirtyOn = true }

// DrainDirty hands the dirty report accumulated since the previous drain
// to fn and resets it: computed holds, per engine shard, the slots of the
// nodes whose Compute actually ran (shard-major canonical order; a node
// computing k times appears k times; skipped no-op rounds are omitted —
// they leave the view untouched by construction), added the joining IDs
// and removed the departures with the slot each held, both in call order.
// The slices are only valid during fn.
func (e *Engine) DrainDirty(fn func(computed [NumShards][]int32, added []ident.NodeID, removed []RemovedNode)) {
	fn(e.dirtyComputed, e.dirtyAdded, e.dirtyRemoved)
	for s := range e.dirtyComputed {
		e.dirtyComputed[s] = e.dirtyComputed[s][:0]
	}
	e.dirtyAdded = e.dirtyAdded[:0]
	e.dirtyRemoved = e.dirtyRemoved[:0]
}

// Introspect returns the engine's flight recorder. It is always armed;
// every counter it serves is bit-identical at any worker count (the
// wall-clock phase timings, kept in the registry's separate section, are
// the one machine-dependent surface).
func (e *Engine) Introspect() *introspect.Registry { return e.reg }

// TraceWakes toggles per-node wake recording: while on, every executed
// compute appends a WakeRec (node, cause, offending sender) to a recycled
// ring drained with DrainWakes. The per-cause histogram counters are
// always on regardless; the ring exists for per-node traces
// (grpsoak -trace-wakes) and costs nothing while off.
func (e *Engine) TraceWakes(on bool) { e.traceWakes = on }

// DrainWakes hands the wake ring accumulated since the previous drain to
// fn and resets it (keeping capacity). Records are in shard-major
// canonical order per tick, ticks in order — bit-identical at any worker
// count. The slice is only valid during fn.
func (e *Engine) DrainWakes(fn func(wakes []introspect.WakeRec)) {
	fn(e.wakeRing)
	e.wakeRing = e.wakeRing[:0]
}

// Tick returns the current tick count.
func (e *Engine) Tick() int { return e.tick }

// Rand exposes the simulation's global RNG for workload builders that
// must stay in lockstep with the run's determinism.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Order returns the current node population in ascending order (the
// roster's backing slice: read-only, valid until the next membership
// change).
func (e *Engine) Order() []ident.NodeID { return e.order.IDs() }

// SlotOf returns v's roster slot, or NoSlot when v is not a member —
// the ID→slot boundary for observers that mirror the engine's
// slot-indexed bookkeeping.
func (e *Engine) SlotOf(v ident.NodeID) int32 { return e.order.SlotOf(v) }

// IDAtSlot returns the member occupying slot s, or ident.None when the
// slot is free or out of range.
func (e *Engine) IDAtSlot(s int32) ident.NodeID {
	if s < 0 || int(s) >= len(e.recs) {
		return ident.None
	}
	return e.recs[s].id
}

// NodeAtSlot returns the protocol node at slot s, or nil when the slot is
// free or out of range.
func (e *Engine) NodeAtSlot(s int32) *core.Node {
	if s < 0 || int(s) >= len(e.recs) {
		return nil
	}
	return e.recs[s].n
}

// SlotCap returns the roster's slot table size: every live slot is below
// it, so slot-indexed observer arrays size themselves to it.
func (e *Engine) SlotCap() int { return e.order.SlotCap() }

// workers resolves the effective fan-out width.
func (e *Engine) workers() int {
	if e.P.Workers > NumShards {
		return NumShards
	}
	return e.P.Workers
}

// runShards applies fn to every shard: inline when Workers ≤ 1, else on a
// pool of Workers goroutines with a static shard-to-worker assignment.
// fn must only touch shard-local state (plus read-only shared state).
func (e *Engine) runShards(fn func(s int)) {
	w := e.workers()
	if w <= 1 {
		for s := 0; s < NumShards; s++ {
			fn(s)
		}
		return
	}
	var wg sync.WaitGroup
	wg.Add(w)
	for i := 0; i < w; i++ {
		go func(i int) {
			defer wg.Done()
			for s := i; s < NumShards; s += w {
				fn(s)
			}
		}(i)
	}
	wg.Wait()
}

// pendingUpsert records one delivery in a record's inbox signature: one
// entry per sender, ascending by sender ID, last write wins — mirroring
// the last-wins semantics of core.Node.Receive, so two equal signatures
// imply byte-identical buffered message sets. The second result reports
// that the exact entry was already present, which by the same mirror
// property proves the inbox already buffers this very message as the
// sender's last — the caller can elide the store entirely (in a settled
// world, almost every delivery is such a repeat of an unchanged cached
// broadcast).
func pendingUpsert(p []senderVer, sv senderVer) ([]senderVer, bool) {
	i := sort.Search(len(p), func(i int) bool { return p[i].id >= sv.id })
	if i < len(p) && p[i].id == sv.id {
		if p[i] == sv {
			return p, true
		}
		p[i] = sv
		return p, false
	}
	p = append(p, senderVer{})
	copy(p[i+1:], p[i:])
	p[i] = sv
	return p, false
}

// ExternalDelivery is one reception injected by a distributed wrapper
// (internal/dist): a broadcast built by a remote engine, addressed to a
// local member. Gen and Ver identify the sender's incarnation and the
// state version the broadcast was built at — the same pair a local
// delivery carries in its inbox signature — so the activity skip and the
// repeat-elision work identically across the process boundary. The
// receiver's inbox keeps Msg by reference (core.Node.ReceiveRef) until its
// next compute, so Msg must stay unchanged at least that long: a wrapper
// that refreshes a replica allocates a fresh Message instead of
// overwriting the one it injected.
type ExternalDelivery struct {
	To   ident.NodeID
	From ident.NodeID
	Gen  uint64
	Ver  uint64
	Msg  *core.Message
}

// Step advances one tick through the five phases: advance topology, build
// due broadcasts, arbitrate the channel, deliver receptions, run due
// computes. It is exactly AdvancePhase + BuildPhase + FinishTick(nil);
// distributed callers invoke the three parts directly and exchange
// boundary traffic between BuildPhase and FinishTick.
func (e *Engine) Step() {
	e.AdvancePhase()
	e.BuildPhase()
	e.FinishTick(nil)
}

// AdvancePhase runs phase 1 of a tick: the topology moves on the global
// RNG stream. Distributed callers use the split form (AdvancePhase,
// BuildPhase, FinishTick); everyone else calls Step.
func (e *Engine) AdvancePhase() {
	// Phase 1: topology (global RNG stream).
	start := time.Now()
	e.Topo.Advance(e.rng)
	e.markPhase(introspect.PhaseAdvance, start)
}

// BuildPhase runs phase 2 of a tick: every member whose send timer fires
// assembles (or revalidates) its broadcast. It returns the merged
// transmission slate in canonical shard-major order — a read-only view
// of engine-owned storage, valid until the next BuildPhase. The slate is
// retained for FinishTick's arbitration; distributed callers read it to
// route boundary copies of due broadcasts to neighboring shards.
func (e *Engine) BuildPhase() []radio.Tx {
	start := time.Now()

	// Phase 2: build. The wheel hands each shard exactly its due senders
	// in canonical order; workers draw send backoffs from their shard's
	// private stream, so the draw sequence is independent of the worker
	// count. Broadcasts and receiver sets come from each node's
	// slot-indexed record: messages revalidate against the node's state
	// version, receiver sets against the epoch bumped below on any
	// (topology, membership) change.
	rower, _ := e.Topo.(RowTopology)
	g := e.Topo.Graph()
	if g != e.recvG || g.Generation() != e.recvGen || e.memberGen != e.recvMem {
		// Before invalidating every receiver cache, ask the topology which
		// rows the change could actually have touched: when the graph
		// advanced by exactly one delta step over an unchanged roster, only
		// the returned senders' records are demoted and the overwhelming
		// majority keeps its current epoch — the per-sender row check in
		// the shard loop below never even runs for them.
		dirty, ok := []ident.NodeID(nil), false
		if rower != nil && e.recvG != nil && e.memberGen == e.recvMem {
			dirty, ok = rower.RowsChanged(e.recvG)
		}
		if ok {
			demoted := uint64(0)
			for _, v := range dirty {
				if s := e.order.SlotOf(v); s >= 0 && e.recs[s].recvEpoch == e.recvEpoch {
					e.recs[s].recvEpoch--
					demoted++
				}
			}
			e.reg.Inc(introspect.CtrGraphDeltaRounds)
			e.reg.Add(introspect.CtrRecvRowDemotions, demoted)
		} else {
			e.recvEpoch++
			e.reg.Inc(introspect.CtrGraphFullRounds)
		}
		e.recvG, e.recvGen, e.recvMem = g, g.Generation(), e.memberGen
	}
	var due *shardBuckets
	if e.P.RandomizedSends {
		due = e.sendOneshot.take(e.tick)
	} else {
		due = e.sendWheel.due(e.tick)
	}
	e.runShards(func(s int) {
		sc := &e.scratch[s]
		sc.txs = sc.txs[:0]
		sc.bytes = 0
		// Shard-local accumulators, flushed to the shard's registry lane
		// once at the end: the hot loop pays plain integer adds only.
		var builds, cacheHits, recvHits, rowHits, rowRefills, rebuilds uint64
		for _, ent := range due[s] {
			rec := &e.recs[ent.slot]
			if rec.id != ent.id {
				continue // defensive: wheels are maintained on removal
			}
			if e.P.RandomizedSends {
				e.sendOneshot.schedule(ent, e.tick+1+e.shardRNGs[s].Intn(e.P.Ts))
			}
			if rec.recvEpoch == e.recvEpoch {
				recvHits++
			} else {
				// The receiver cache is stale on the coarse key (graph or
				// membership changed somewhere). Before re-deriving, try the
				// fine-grained row check: a RowTopology serving the very
				// same row under the same membership generation proves this
				// sender's receiver set is untouched.
				if row, ok := rowFor(rower, ent.id); ok {
					if rec.rowMem == e.memberGen && sameRow(rec.rowRef, row) {
						rowHits++
					} else {
						rowRefills++
						live := rec.recv[:0]
						for _, u := range row {
							if e.order.SlotOf(u) >= 0 {
								live = append(live, u)
							}
						}
						rec.recv = live
						rec.rowRef = row
						rec.rowMem = e.memberGen
					}
				} else {
					// Refill the record's recycled slice and drop dead nodes
					// in place. Reuse is safe: transmissions referencing the
					// old backing were consumed within their own tick.
					rebuilds++
					buf := e.Topo.AppendReceivers(ent.id, rec.recv[:0])
					live := buf[:0]
					for _, u := range buf {
						if e.order.SlotOf(u) >= 0 {
							live = append(live, u)
						}
					}
					rec.recv = live
					rec.rowRef = nil
				}
				rec.recvEpoch = e.recvEpoch
			}
			if rec.lie != nil {
				// A Byzantine liar transmits its forged frame instead of
				// assembling a genuine broadcast; the deliver phase below
				// resolves its receptions to the lie.
				sc.txs = append(sc.txs, radio.Tx{Sender: ent.id, Receivers: rec.recv})
				sc.bytes += rec.lieSize
				continue
			}
			if rec.cm.ver != rec.n.Version() {
				builds++
				m := rec.n.BuildMessage()
				rec.cm = cachedMsg{m: &m, size: m.EncodedSize(), ver: rec.n.Version()}
			} else {
				cacheHits++
			}
			sc.txs = append(sc.txs, radio.Tx{Sender: ent.id, Receivers: rec.recv})
			sc.bytes += rec.cm.size
		}
		lane := e.reg.Shard(s)
		lane.Add(introspect.CtrMsgBuilds, builds)
		lane.Add(introspect.CtrMsgCacheHits, cacheHits)
		lane.Add(introspect.CtrRecvCacheHits, recvHits)
		lane.Add(introspect.CtrRecvRowHits, rowHits)
		lane.Add(introspect.CtrRecvRowRefills, rowRefills)
		lane.Add(introspect.CtrRecvRebuilds, rebuilds)
	})
	if e.P.RandomizedSends {
		e.sendOneshot.reset(e.tick)
	}

	// Merge the shard results in shard-major order — the canonical slot
	// order the channel sees, identical at any worker count.
	txs := e.txsBuf[:0]
	for s := range e.scratch {
		sc := &e.scratch[s]
		txs = append(txs, sc.txs...)
		e.MessagesSent += len(sc.txs)
		e.BytesSent += sc.bytes
		e.reg.Add(introspect.CtrMessagesSent, uint64(len(sc.txs)))
		e.reg.Add(introspect.CtrBytesSent, uint64(sc.bytes))
	}
	e.txsBuf = txs
	e.markPhase(introspect.PhaseBuild, start)
	return e.txsBuf
}

// BroadcastOf returns member v's current broadcast as the deliver phase
// would resolve it — the (version-validated) cached message, or the
// armed Byzantine lie — together with the (incarnation, version) pair
// its deliveries are signed with. ok is false when v is not a member or
// its send timer has not fired yet this run (no broadcast built). The
// message is shared with the engine and every inbox it was delivered to:
// it is never modified (a rebuild replaces it) and must not be mutated.
// Distributed wrappers call this after BuildPhase to encode boundary
// copies of due broadcasts.
func (e *Engine) BroadcastOf(v ident.NodeID) (m *core.Message, gen, ver uint64, ok bool) {
	slot := e.order.SlotOf(v)
	if slot < 0 {
		return nil, 0, 0, false
	}
	rec := &e.recs[slot]
	if rec.lie != nil {
		return rec.lie, rec.gen, rec.lieVer, true
	}
	if rec.cm.ver == ^uint64(0) {
		return nil, 0, 0, false
	}
	return rec.cm.m, rec.gen, rec.cm.ver, true
}

// FinishTick runs phases 3–5 of a tick: arbitrate the channel over the
// slate BuildPhase produced, deliver the receptions (plus any externally
// injected ones), run due computes, and close the tick. ext carries
// cross-process receptions from a distributed wrapper; they join the
// local deliveries in the same partition-by-receiver-shard path,
// including the signature upkeep and the repeat-elision. Order between
// local and external deliveries is immaterial to the trace: receivers
// keep one last-write-wins buffer per sender and a sender transmits at
// most once per tick, so no receiver ever sees two deliveries from the
// same sender in one tick. Step is FinishTick(nil).
func (e *Engine) FinishTick(ext []ExternalDelivery) {
	now := time.Now()
	txs := e.txsBuf

	if len(txs) > 0 {
		// Phase 3: channel arbitration (global RNG stream, sequential),
		// through the recycled delivery buffer when the channel supports
		// it.
		if bc, ok := e.P.Channel.(radio.BufferedChannel); ok {
			e.delivBuf = bc.AppendDeliverSlot(txs, e.rng, e.delivBuf[:0])
		} else {
			e.delivBuf = append(e.delivBuf[:0], e.P.Channel.DeliverSlot(txs, e.rng)...)
		}
		// Route the channel's suppressed-delivery count into the registry
		// as a per-tick delta (drops only move inside DeliverSlot, so the
		// running total equals the channel's own cumulative counter).
		if dc, ok := e.P.Channel.(radio.DropCounter); ok {
			if d := dc.DroppedDeliveries(); d != e.lastDrops {
				e.reg.Add(introspect.CtrRadioDrops, d-e.lastDrops)
				e.lastDrops = d
			}
		}
		now = e.markPhase(introspect.PhaseArbitrate, now)
	} else {
		e.delivBuf = e.delivBuf[:0]
	}
	deliveries := e.delivBuf

	if len(txs) > 0 || len(ext) > 0 {
		// Phase 4: deliver. Receptions are partitioned by receiver shard
		// on the coordinator — with the receiver record and sender message
		// resolved up front (the two ID→slot probes here are the radio
		// contract's boundary) — then stored in parallel: each node's
		// inbox and signature are only ever touched by its own shard's
		// worker.
		for s := range e.scratch {
			e.scratch[s].deliv = e.scratch[s].deliv[:0]
		}
		delivs := uint64(0)
		for _, d := range deliveries {
			toSlot := e.order.SlotOf(d.To)
			if toSlot < 0 {
				continue
			}
			e.Deliveries++
			delivs++
			fromSlot := e.order.SlotOf(d.From)
			if fromSlot < 0 {
				// A channel implementation fabricated or replayed a
				// delivery from a sender that is no longer (or never was)
				// live: count it, deliver nothing — the pre-rewrite
				// message-cache lookup yielded a zero Message here, which
				// Receive dropped.
				continue
			}
			from := &e.recs[fromSlot]
			msg, ver := from.cm.m, from.cm.ver
			if from.lie != nil {
				msg, ver = from.lie, from.lieVer
			}
			sc := &e.scratch[shardOf(d.To)]
			sc.deliv = append(sc.deliv, resolvedDelivery{
				to:   &e.recs[toSlot],
				msg:  msg,
				from: senderVer{id: d.From, gen: from.gen, ver: ver},
			})
		}
		// External receptions (distributed wrapper): the sender's record
		// lives in another process, so the (gen, ver) signature arrives
		// resolved; only the receiver is looked up locally. Appending
		// after the local partition keeps each scratch list single-writer;
		// within a shard the relative order is irrelevant (see above).
		for _, x := range ext {
			toSlot := e.order.SlotOf(x.To)
			if toSlot < 0 {
				continue
			}
			e.Deliveries++
			delivs++
			sc := &e.scratch[shardOf(x.To)]
			sc.deliv = append(sc.deliv, resolvedDelivery{
				to:   &e.recs[toSlot],
				msg:  x.Msg,
				from: senderVer{id: x.From, gen: x.Gen, ver: x.Ver},
			})
		}
		e.reg.Add(introspect.CtrDeliveries, delivs)
		e.runShards(func(s int) {
			var elided uint64
			for _, d := range e.scratch[s].deliv {
				if d.from.ver == ^uint64(0) {
					// An unbuilt broadcast (fabricated delivery) has no
					// message to store; it never enters the inbox, so it
					// must not enter the signature either.
					continue
				}
				var dup bool
				d.to.pending, dup = pendingUpsert(d.to.pending, d.from)
				if !dup {
					d.to.n.ReceiveRef(d.msg)
				} else {
					elided++
				}
			}
			e.reg.Shard(s).Add(introspect.CtrDeliveriesElided, elided)
		})
		now = e.markPhase(introspect.PhaseDeliver, now)
	}

	// Phase 5: compute, activity-driven. A node runs its full Compute
	// unless its last executed round was quiet (armed), its state version
	// is untouched since (fixVer — LoadState and any other external
	// mutation disarm via this), and the inbox signature of this window
	// equals the one the quiet round consumed — in which case the round
	// provably reproduces itself and is replayed in O(1).
	cdue := e.computeWheel.due(e.tick)
	e.runShards(func(s int) {
		sc := &e.scratch[s]
		sc.ran, sc.skipped = 0, 0
		sc.wakes = sc.wakes[:0]
		var skipFix, skipLonely, skipHeld uint64
		var wk [introspect.NumWakeCauses]uint64
		for _, ent := range cdue[s] {
			rec := &e.recs[ent.slot]
			if rec.id != ent.id {
				continue // defensive: wheels are maintained on removal
			}
			if !e.P.EagerCompute && rec.armed && rec.n.Version() == rec.fixVer &&
				(rec.quiet != core.QuietHeld || rec.n.Computes() < rec.holdExp) &&
				senderVersEqual(rec.pending, rec.consumed) {
				switch rec.quiet {
				case core.QuietLonely:
					rec.n.SkipLonelyRound()
					skipLonely++
				case core.QuietHeld:
					rec.n.SkipHeldRound()
					skipHeld++
				default:
					rec.n.SkipQuietRound()
					skipFix++
				}
				rec.fixVer = rec.n.Version()
				rec.pending = rec.pending[:0]
				sc.skipped++
				continue
			}
			// Wake attribution: classify which gate of the skip check broke
			// before the compute disturbs the evidence. Every executed
			// compute gets exactly one cause, so the per-cause histogram
			// accounts for 100% of the computes run.
			cause, offender := classifyWake(rec)
			wk[cause]++
			if e.traceWakes {
				sc.wakes = append(sc.wakes, introspect.WakeRec{Node: ent.id, Cause: cause, Sender: offender})
			}
			rec.n.ComputeIn(&sc.ws)
			rec.seeded = true
			q := rec.n.RoundQuietness()
			if q != core.QuietNone {
				rec.pending, rec.consumed = rec.consumed[:0], rec.pending
				rec.armed = true
				rec.quiet = q
				if q == core.QuietHeld {
					rec.holdExp = rec.n.HoldHorizon()
				}
			} else {
				rec.armed = false
				rec.pending = rec.pending[:0]
			}
			rec.fixVer = rec.n.Version()
			sc.ran++
			if e.dirtyOn {
				e.dirtyComputed[s] = append(e.dirtyComputed[s], ent.slot)
			}
		}
		lane := e.reg.Shard(s)
		lane.Add(introspect.CtrComputesRun, uint64(sc.ran))
		lane.Add(introspect.CtrComputesSkipped, uint64(sc.skipped))
		lane.Add(introspect.CtrSkipFixpoint, skipFix)
		lane.Add(introspect.CtrSkipLonely, skipLonely)
		lane.Add(introspect.CtrSkipHeld, skipHeld)
		for c, n := range wk {
			lane.Add(introspect.WakeCause(c).Counter(), n)
		}
	})
	for s := range e.scratch {
		e.ComputesRun += e.scratch[s].ran
		e.ComputesSkipped += e.scratch[s].skipped
		if e.traceWakes {
			e.wakeRing = append(e.wakeRing, e.scratch[s].wakes...)
		}
	}
	e.markPhase(introspect.PhaseCompute, now)
	e.reg.Inc(introspect.CtrTicks)

	e.tick++
}

// markPhase closes one wall-clock phase window: it accumulates the time
// since start into the registry's non-deterministic section and returns
// the new boundary instant.
func (e *Engine) markPhase(p introspect.Phase, start time.Time) time.Time {
	now := time.Now()
	e.reg.AddPhaseNs(p, now.Sub(start).Nanoseconds())
	return now
}

// classifyWake attributes an executed compute to the first skip-check
// gate that broke, in the predicate's own evaluation order. For the
// inbox-signature causes it also reports the first offending sender in
// signature (ascending ID) order: the node whose fresh traffic — or
// silence — woke this one. A compute with every gate intact (possible
// only under EagerCompute) is a quiet replay.
func classifyWake(rec *nodeRec) (introspect.WakeCause, ident.NodeID) {
	switch {
	case !rec.seeded:
		return introspect.WakeFresh, ident.None
	case !rec.armed:
		return introspect.WakeSelfActive, ident.None
	case rec.n.Version() != rec.fixVer:
		return introspect.WakeVersionBump, ident.None
	case rec.quiet == core.QuietHeld && rec.n.Computes() >= rec.holdExp:
		return introspect.WakeHoldExpiry, ident.None
	}
	// Merge-walk the two sorted signatures for the first divergence: an
	// entry pending has that consumed lacks (or carries at a different
	// version) is fresh traffic; an entry only consumed has is a sender
	// gone silent (departure, movement, or a stopped broadcast).
	p, c := rec.pending, rec.consumed
	i, j := 0, 0
	for i < len(p) && j < len(c) {
		switch {
		case p[i].id == c[j].id:
			if p[i] != c[j] {
				return introspect.WakeInboxNew, p[i].id
			}
			i++
			j++
		case p[i].id < c[j].id:
			return introspect.WakeInboxNew, p[i].id
		default:
			return introspect.WakeInboxLost, c[j].id
		}
	}
	if i < len(p) {
		return introspect.WakeInboxNew, p[i].id
	}
	if j < len(c) {
		return introspect.WakeInboxLost, c[j].id
	}
	return introspect.WakeQuietReplay, ident.None
}

// rowFor fetches the receiver row view from a RowTopology, tolerating a
// topology that serves no rows (nil rower or a false return).
func rowFor(rower RowTopology, v ident.NodeID) ([]ident.NodeID, bool) {
	if rower == nil {
		return nil, false
	}
	return rower.ReceiverRow(v)
}

// sameRow reports whether two row views are the same storage: identical
// length and, when non-empty, identical backing. Rows are immutable once
// shared, so identity implies identical content.
func sameRow(a, b []ident.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	return len(a) == 0 || &a[0] == &b[0]
}

// senderVersEqual reports whether two inbox signatures are identical.
func senderVersEqual(a, b []senderVer) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// StepTicks advances k ticks.
func (e *Engine) StepTicks(k int) {
	for i := 0; i < k; i++ {
		e.Step()
	}
}

// StepRound advances one full compute period (Tc ticks): every node sends
// at least Tc/Ts times and computes at least once — the fair-channel
// window τ1.
func (e *Engine) StepRound() { e.StepTicks(e.P.Tc) }

// Snapshot captures the current configuration for the metrics predicates.
// Only live protocol nodes contribute views. The view maps are fresh on
// every call (snapshots are routinely held across rounds); the restricted
// topology graph is served from the builder's cache and only re-derived
// when the topology or the membership actually changed — on a static
// topology this removes the per-round O(V+E) graph clone entirely.
func (e *Engine) Snapshot() metrics.Snapshot {
	views := make(map[ident.NodeID]map[ident.NodeID]bool, len(e.Nodes))
	for _, v := range e.order.IDs() {
		views[v] = e.Nodes[v].ViewSet()
	}
	return metrics.Snapshot{G: e.SnapshotGraph(), Views: views}
}

// SnapshotGraph returns the topology graph restricted to the live
// protocol nodes — the G half of Snapshot without materializing any view
// map. Incremental observers key their per-node neighborhood caches on
// its (pointer, generation) identity; like Snapshot's graph it is served
// from the builder's cache and replaced, never mutated, when the topology
// or the membership changes.
func (e *Engine) SnapshotGraph() *graph.G {
	return e.snap.Graph(e.Topo.Graph(), e.memberGen, func(v ident.NodeID) bool {
		_, ok := e.Nodes[v]
		return ok
	})
}

// RunUntilConverged steps whole rounds until the legitimacy predicate
// ΠA ∧ ΠS ∧ ΠM holds for `stable` consecutive rounds or maxRounds passes.
// It returns the number of rounds to first convergence and whether
// convergence was reached.
func (e *Engine) RunUntilConverged(maxRounds, stable int) (rounds int, ok bool) {
	if stable < 1 {
		stable = 1
	}
	streak := 0
	first := 0
	for r := 1; r <= maxRounds; r++ {
		e.StepRound()
		if e.Snapshot().Converged(e.P.Cfg.Dmax) {
			if streak == 0 {
				first = r
			}
			streak++
			if streak >= stable {
				return first, true
			}
		} else {
			streak = 0
		}
	}
	return maxRounds, false
}
