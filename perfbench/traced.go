package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/ident"
	"repro/internal/introspect"
	"repro/internal/metrics"
	"repro/internal/mobility"
	"repro/internal/obs"
	"repro/internal/space"
)

// spans accumulate host time around public calls over the measured
// rounds. In a sharded run they are the lead shard's (shard 0's), the
// shard whose timeline the round time follows.
type spans struct {
	mobility time.Duration // mobility.Model.Step, through timedModel
	advance  time.Duration // Engine.AdvancePhase (mobility + space)
	build    time.Duration // Engine.BuildPhase
	finish   time.Duration // Engine.FinishTick
	tick     time.Duration // dist.Shard.Tick
	exchange time.Duration // dist.Transport.Exchange, through timedTransport
	observe  time.Duration // GroupTracker.Observe
	sink     time.Duration // Sink.Write
}

// simStats are the simulated statistics, over the measured rounds
// (unexcused over the whole run, as the tracker counts it).
type simStats struct {
	converged, unexcused int
	groups               float64
}

func (s *simStats) observe(st obs.RoundStats) {
	if st.Converged {
		s.converged++
	}
	s.groups += float64(st.Groups)
}

// tracedRun is a run driven step by step from here.
type tracedRun struct {
	spans    spans
	rounds   []time.Duration
	ticks    int
	counters [introspect.NumCounters]uint64 // registry deltas over the measured rounds, summed over shards
	phases   map[string]int64               // program-reported phase time over the measured rounds, lead engine
	witness  witness
	sim      simStats

	regs       []*introspect.Registry
	baseCtr    [introspect.NumCounters]uint64
	basePhases map[string]int64
	baseTick   int
}

// timedModel forwards every call to the wrapped mobility model and
// times Step.
type timedModel struct {
	mobility.Model
	ns time.Duration
}

func (m *timedModel) Step(w *space.World, dt float64, rng *rand.Rand) {
	t := time.Now()
	m.Model.Step(w, dt, rng)
	m.ns += time.Since(t)
}

// timedTransport forwards every call to the wrapped transport and times
// Exchange: the barrier wait plus the copy.
type timedTransport struct {
	dist.Transport
	ns time.Duration
}

func (t *timedTransport) Exchange(seq uint64, out [][]byte) ([][]byte, error) {
	start := time.Now()
	in, err := t.Transport.Exchange(seq, out)
	t.ns += time.Since(start)
	return in, err
}

func (run *tracedRun) counterTotals() (c [introspect.NumCounters]uint64) {
	for _, reg := range run.regs {
		for id := range c {
			c[id] += reg.Get(introspect.CounterID(id))
		}
	}
	return c
}

// begin marks the start of the measured rounds.
func (run *tracedRun) begin(tick int) {
	run.spans = spans{}
	run.baseCtr = run.counterTotals()
	run.basePhases = run.regs[0].Snapshot().PhaseNs
	run.baseTick = tick
}

// end closes the measured rounds.
func (run *tracedRun) end(tick int) {
	c := run.counterTotals()
	for id := range c {
		run.counters[id] = c[id] - run.baseCtr[id]
	}
	run.phases = run.regs[0].Snapshot().PhaseNs
	for p, ns := range run.basePhases {
		run.phases[p] -= ns
	}
	run.ticks = tick - run.baseTick
}

// round records one round's observation; measured reports whether it
// is past the warm-up.
func (run *tracedRun) round(st obs.RoundStats, d time.Duration, measured bool) {
	if !st.Continuity && st.Topological {
		run.sim.unexcused++
	}
	if measured {
		run.rounds = append(run.rounds, d)
		run.sim.observe(st)
	}
}

func runTraced(w workload, seed int64, measured int) (*tracedRun, error) {
	if w.shards > 1 {
		return runTracedSharded(w, seed, measured)
	}
	return runTracedSingle(w, seed, measured)
}

// runTracedSingle replays obs.RunSoak's construction and round loop —
// churn, Tc ticks, observation, record — calling the engine's tick in
// its three public parts.
func runTracedSingle(w workload, seed int64, measured int) (*tracedRun, error) {
	cfg := w.soakConfig(seed, w.warm+measured)
	world, mob, ids := obs.BuildSoakWorld(&cfg)
	tm := &timedModel{Model: mob}
	topo := engine.NewSpatialTopology(world, tm, cfg.DT, ids, rand.New(rand.NewSource(cfg.Seed)))
	e := engine.New(engine.Params{Cfg: core.Config{Dmax: cfg.Dmax}, Seed: cfg.Seed, Workers: cfg.Workers}, topo)
	tracker := obs.NewGroupTracker(e)
	h := fnv.New64a()
	sink := obs.NewJSONLSink(h, 0)
	// The churn stream and its draws must stay exactly obs.RunSoak's; the
	// witness comparison with the untraced run catches any divergence.
	churn := rand.New(rand.NewSource(cfg.Seed ^ 0x50a4))
	nextID := ident.NodeID(cfg.N + 1)

	run := &tracedRun{regs: []*introspect.Registry{e.Introspect()}}
	for r := 1; r <= cfg.MaxRounds; r++ {
		if r == w.warm+1 {
			run.begin(e.Tick())
			tm.ns = 0
		}
		t0 := time.Now()
		if cfg.LeaveRate > 0 && churn.Float64() < cfg.LeaveRate {
			if order := e.Order(); len(order) > 2 {
				v := order[churn.Intn(len(order))]
				e.RemoveNode(v)
				world.Remove(v)
			}
		}
		if cfg.JoinRate > 0 && churn.Float64() < cfg.JoinRate {
			v := nextID
			nextID++
			world.Place(v, space.Point{X: churn.Float64() * cfg.Side, Y: churn.Float64() * cfg.Side})
			e.AddNode(v)
		}
		for i := 0; i < e.P.Tc; i++ {
			a := time.Now()
			e.AdvancePhase()
			b := time.Now()
			e.BuildPhase()
			c := time.Now()
			e.FinishTick(nil)
			d := time.Now()
			run.spans.advance += b.Sub(a)
			run.spans.build += c.Sub(b)
			run.spans.finish += d.Sub(c)
		}
		o := time.Now()
		st := tracker.Observe()
		s := time.Now()
		if err := sink.Write(st); err != nil {
			return nil, fmt.Errorf("round %d: sink: %w", r, err)
		}
		end := time.Now()
		run.spans.observe += s.Sub(o)
		run.spans.sink += end.Sub(s)
		run.round(st, end.Sub(t0), r > w.warm)
	}
	run.end(e.Tick())
	run.spans.mobility = tm.ns
	if err := sink.Close(); err != nil {
		return nil, fmt.Errorf("closing the record sink: %w", err)
	}
	run.witness = witness{fp: obs.EngineFingerprint(e), digest: h.Sum64()}
	return run, nil
}

// runTracedSharded drives every shard of a loopback split from here:
// the lead (shard 0) on this goroutine, tick by tick, each peer on its
// own goroutine one round at a time. The lead's transport and mobility
// model are wrapped to time Exchange and Step. The lead tracker observes
// the shards through mergedSource (dist's own lead merge is internal).
func runTracedSharded(w workload, seed int64, measured int) (run *tracedRun, err error) {
	cfg := dist.Config{Soak: w.soakConfig(seed, w.warm+measured), Shards: w.shards}
	eps := dist.NewLoopback(cfg.Shards)
	tt := &timedTransport{Transport: eps[0]}
	shards := make([]*dist.Shard, cfg.Shards)
	for i := range shards {
		tr := eps[i]
		if i == 0 {
			tr = tt
		}
		if shards[i], err = dist.NewShard(cfg, i, tr); err != nil {
			return nil, err
		}
	}
	lead := shards[0]
	tm := &timedModel{Model: lead.Topo.Mob}
	lead.Topo.Mob = tm
	tracker := obs.NewGroupTrackerSource(newMergedSource(shards, lead.Soak))
	h := fnv.New64a()
	sink := obs.NewJSONLSink(h, 0)

	// Each peer runs one round per start signal and reports on done
	// (capacity 1: one report per round, so a peer never blocks on it).
	starts := make([]chan struct{}, cfg.Shards)
	dones := make([]chan error, cfg.Shards)
	var wg sync.WaitGroup
	for i := 1; i < cfg.Shards; i++ {
		starts[i], dones[i] = make(chan struct{}), make(chan error, 1)
		wg.Add(1)
		go func(sh *dist.Shard, start <-chan struct{}, done chan<- error) {
			defer wg.Done()
			for range start {
				done <- sh.StepRound()
			}
		}(shards[i], starts[i], dones[i])
	}
	defer func() {
		// Closing the fabric releases any peer blocked on the barrier.
		for _, ep := range eps {
			ep.Close()
		}
		for i := 1; i < cfg.Shards; i++ {
			close(starts[i])
		}
		wg.Wait()
	}()

	run = &tracedRun{}
	for _, sh := range shards {
		run.regs = append(run.regs, sh.E.Introspect())
	}
	for r := 1; r <= cfg.Soak.MaxRounds; r++ {
		if r == w.warm+1 {
			run.begin(lead.E.Tick())
			tm.ns, tt.ns = 0, 0
		}
		t0 := time.Now()
		for i := 1; i < cfg.Shards; i++ {
			starts[i] <- struct{}{}
		}
		for i := 0; i < lead.E.P.Tc; i++ {
			a := time.Now()
			if err := lead.Tick(); err != nil {
				return nil, fmt.Errorf("round %d: shard 0: %w", r, err)
			}
			run.spans.tick += time.Since(a)
		}
		for i := 1; i < cfg.Shards; i++ {
			if err := <-dones[i]; err != nil {
				return nil, fmt.Errorf("round %d: shard %d: %w", r, i, err)
			}
		}
		o := time.Now()
		st := tracker.Observe()
		s := time.Now()
		if err := sink.Write(st); err != nil {
			return nil, fmt.Errorf("round %d: sink: %w", r, err)
		}
		end := time.Now()
		run.spans.observe += s.Sub(o)
		run.spans.sink += end.Sub(s)
		run.round(st, end.Sub(t0), r > w.warm)
	}
	run.end(lead.E.Tick())
	run.spans.mobility, run.spans.exchange = tm.ns, tt.ns
	if err := sink.Close(); err != nil {
		return nil, fmt.Errorf("closing the record sink: %w", err)
	}
	var pairs []obs.NodeHashPair
	for _, sh := range shards {
		pairs = obs.AppendEngineHashes(pairs, sh.E)
	}
	if len(pairs) != cfg.Soak.N {
		return nil, fmt.Errorf("shards hold %d of %d nodes", len(pairs), cfg.Soak.N)
	}
	run.witness = witness{fp: obs.FoldFingerprint(pairs), digest: h.Sum64()}
	return run, nil
}

// mergedSource serves the tracker the union of in-process shards, the
// way dist's lead serves it from the shards' round reports: one roster
// over the whole (fixed) population in ascending ID order, computed
// sets folded in shard order, views read from the owning shard's node.
type mergedSource struct {
	shards []*dist.Shard
	soak   obs.SoakConfig
	roster *engine.Roster
	owner  []int // slot → owning shard
	snap   metrics.SnapshotBuilder

	computed [engine.NumShards][]int32
}

func newMergedSource(shards []*dist.Shard, soak obs.SoakConfig) *mergedSource {
	m := &mergedSource{shards: shards, soak: soak, roster: engine.NewRoster()}
	for v := ident.NodeID(1); int(v) <= soak.N; v++ {
		m.roster.Add(v)
	}
	m.owner = make([]int, m.roster.SlotCap())
	for i, sh := range shards {
		for _, v := range sh.Owned {
			m.owner[m.roster.SlotOf(v)] = i
		}
	}
	return m
}

func (m *mergedSource) Workers() int                     { return m.soak.Workers }
func (m *mergedSource) Dmax() int                        { return m.soak.Dmax }
func (m *mergedSource) SlotCap() int                     { return m.roster.SlotCap() }
func (m *mergedSource) Order() []ident.NodeID            { return m.roster.IDs() }
func (m *mergedSource) SlotOf(v ident.NodeID) int32      { return m.roster.SlotOf(v) }
func (m *mergedSource) Tick() int                        { return m.shards[0].E.Tick() }
func (m *mergedSource) Introspect() *introspect.Registry { return m.shards[0].E.Introspect() }

func (m *mergedSource) TrackDirty() {
	for _, sh := range m.shards {
		sh.E.TrackDirty()
	}
}

func (m *mergedSource) ViewerAtSlot(s int32) obs.Viewer {
	v := m.roster.IDAt(s)
	if v == ident.None {
		return nil
	}
	if n := m.shards[m.owner[s]].E.Nodes[v]; n != nil {
		return n
	}
	return nil
}

func (m *mergedSource) DrainDirty(fn func([engine.NumShards][]int32, []ident.NodeID, []engine.RemovedNode)) {
	for _, sh := range m.shards {
		sh.E.DrainDirty(func(computed [engine.NumShards][]int32, _ []ident.NodeID, _ []engine.RemovedNode) {
			for s := range computed {
				for _, slot := range computed[s] {
					v := sh.E.IDAtSlot(slot)
					if v == ident.None {
						continue
					}
					k := engine.ShardOf(v)
					m.computed[k] = append(m.computed[k], m.roster.SlotOf(v))
				}
			}
		})
	}
	fn(m.computed, nil, nil)
	for s := range m.computed {
		m.computed[s] = m.computed[s][:0]
	}
}

func (m *mergedSource) SnapshotGraph() *graph.G {
	return m.snap.Graph(m.shards[0].Topo.Graph(), 1, func(v ident.NodeID) bool {
		return m.roster.SlotOf(v) >= 0
	})
}

func (m *mergedSource) TrafficTotals() (msgs, delivs int) {
	for _, sh := range m.shards {
		msgs += sh.E.MessagesSent
		delivs += sh.E.Deliveries
	}
	return msgs, delivs
}
