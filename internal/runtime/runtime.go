// Package runtime is the live deployment substrate: every GRP node runs
// as its own goroutine with real send/compute timers, exchanging messages
// over channels through a router goroutine that models the radio
// topology. Where internal/sim is the deterministic instrument for
// experiments, this package is how the protocol actually deploys — nodes
// and message passing map one-to-one onto goroutines and channels.
//
// The cluster is built on the shared driver layer of internal/engine: the
// radio relation is an engine.Topology (so a live cluster can route over
// a fixed graph or any other vicinity relation, exactly like the
// deterministic engine does), and membership is an engine.Roster, the
// incrementally ordered node table both drivers share. Tests and
// applications mutate the topology with SetGraph (e.g. as vehicles move).
// All interaction with a node's protocol state goes through its
// goroutine, so there is no shared-memory access to core.Node.
package runtime

import (
	"errors"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/ident"
	"repro/internal/introspect"
)

// Config parameterizes a live cluster.
type Config struct {
	// Protocol is the GRP configuration shared by all nodes.
	Protocol core.Config
	// SendEvery is the Ts timer (τ2); default 20ms.
	SendEvery time.Duration
	// ComputeEvery is the Tc timer (τ1 ≥ τ2); default 2·SendEvery.
	ComputeEvery time.Duration
	// Buffer is the per-node inbox size; default 64. A full inbox drops
	// the incoming message (radio loss), never blocks the router.
	Buffer int
}

func (c *Config) normalize() error {
	if c.SendEvery <= 0 {
		c.SendEvery = 20 * time.Millisecond
	}
	if c.ComputeEvery <= 0 {
		c.ComputeEvery = 2 * c.SendEvery
	}
	if c.ComputeEvery < c.SendEvery {
		return errors.New("runtime: ComputeEvery must be ≥ SendEvery")
	}
	if c.Buffer <= 0 {
		c.Buffer = 64
	}
	return nil
}

// Cluster is a set of live protocol nodes plus the router.
type Cluster struct {
	cfg Config

	mu      sync.RWMutex
	topo    engine.Topology
	ownTopo bool // topology built by the cluster (New/SetGraph), safe to mutate
	roster  *engine.Roster
	procs   map[ident.NodeID]*proc

	broadcasts chan core.Message
	done       chan struct{}
	wg         sync.WaitGroup

	// reg is the cluster's flight-recorder registry (coordinator lane
	// only — the live cluster has no shard structure and no determinism
	// contract; the counters are exact, not reproducible). The router
	// goroutine writes through atomic cells, so observers — including a
	// live introspect HTTP scraper — read without synchronizing.
	reg *introspect.Registry
}

// proc is one node goroutine's handle.
type proc struct {
	id    ident.NodeID
	inbox chan core.Message
	query chan chan state
	stop  chan struct{}
}

// state is a consistent snapshot of one node's observable outputs.
type state struct {
	view []ident.NodeID
	list int // list length, for diagnostics
}

// New creates a cluster over the given graph (which may be mutated later
// via SetGraph) and starts one goroutine per node plus the router.
func New(cfg Config, g *graph.G) (*Cluster, error) {
	c, err := NewWithTopology(cfg, &engine.StaticTopology{G: g.Clone()})
	if err == nil {
		c.ownTopo = true
	}
	return c, err
}

// NewWithTopology creates a cluster routing over an arbitrary vicinity
// relation — the same Topology abstraction the deterministic engine
// drives. The topology stays caller-owned: as with the deterministic
// engine's RemoveNode, Remove stops a node's goroutine but the caller is
// responsible for taking the node out of its own topology.
func NewWithTopology(cfg Config, topo engine.Topology) (*Cluster, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	c := &Cluster{
		cfg:        cfg,
		topo:       topo,
		roster:     engine.NewRoster(),
		procs:      make(map[ident.NodeID]*proc),
		broadcasts: make(chan core.Message, 256),
		done:       make(chan struct{}),
		reg:        introspect.NewRegistry(0),
	}
	c.wg.Add(1)
	go c.route()
	for _, v := range topo.Nodes() {
		c.startNode(v)
	}
	return c, nil
}

// startNode spawns the goroutine for node v.
func (c *Cluster) startNode(v ident.NodeID) {
	p := &proc{
		id:    v,
		inbox: make(chan core.Message, c.cfg.Buffer),
		query: make(chan chan state),
		stop:  make(chan struct{}),
	}
	c.mu.Lock()
	c.procs[v] = p
	c.roster.Add(v)
	c.mu.Unlock()
	c.wg.Add(1)
	go c.run(p)
}

// run is the node goroutine: the paper's main algorithm verbatim — receive
// into the message set, send on Ts, compute on Tc. The goroutine keeps
// its own compute workspace for its node's lifetime.
func (c *Cluster) run(p *proc) {
	defer c.wg.Done()
	n := core.NewNode(p.id, c.cfg.Protocol)
	var ws core.Workspace
	sendT := time.NewTicker(c.cfg.SendEvery)
	computeT := time.NewTicker(c.cfg.ComputeEvery)
	defer sendT.Stop()
	defer computeT.Stop()
	for {
		select {
		case <-p.stop:
			return
		case <-c.done:
			return
		case m := <-p.inbox:
			n.Receive(m)
		case <-sendT.C:
			m := n.BuildMessage()
			select {
			case c.broadcasts <- m:
			case <-c.done:
				return
			}
		case <-computeT.C:
			n.ComputeIn(&ws)
		case reply := <-p.query:
			reply <- state{view: n.View(), list: n.List().Len()}
		}
	}
}

// route is the radio goroutine: it fans each broadcast out to the nodes
// the topology says can hear the sender. A full inbox counts as radio
// loss.
func (c *Cluster) route() {
	defer c.wg.Done()
	for {
		select {
		case <-c.done:
			return
		case m := <-c.broadcasts:
			c.mu.RLock()
			c.reg.Inc(introspect.CtrMessagesSent)
			for _, u := range c.topo.Receivers(m.From) {
				if p, ok := c.procs[u]; ok {
					select {
					case p.inbox <- m:
						c.reg.Inc(introspect.CtrDeliveries)
					default:
						// Inbox full: drop, like a busy radio — but never
						// silently; chaos runs correlate this counter with
						// the violation predicates.
						c.reg.Inc(introspect.CtrRadioDrops)
					}
				}
			}
			c.mu.RUnlock()
		}
	}
}

// SetGraph atomically replaces the communication topology (mobility).
// Nodes present in the new graph but not yet running are started; nodes
// no longer present keep running but become unreachable (use Remove to
// stop them).
func (c *Cluster) SetGraph(g *graph.G) {
	c.mu.Lock()
	c.topo = &engine.StaticTopology{G: g.Clone()}
	c.ownTopo = true
	missing := []ident.NodeID{}
	for _, v := range g.Nodes() {
		if _, ok := c.procs[v]; !ok {
			missing = append(missing, v)
		}
	}
	c.mu.Unlock()
	for _, v := range missing {
		c.startNode(v)
	}
}

// Graph returns a copy of the current topology.
func (c *Cluster) Graph() *graph.G {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.topo.Graph().Clone()
}

// Remove stops node v's goroutine (the node leaves the network). When
// the cluster owns its topology (New, SetGraph) the node is also removed
// from it; a caller-provided topology (NewWithTopology) stays untouched —
// the caller removes the node from its own vicinity relation, exactly as
// with the deterministic engine.
func (c *Cluster) Remove(v ident.NodeID) {
	c.mu.Lock()
	p, ok := c.procs[v]
	if ok {
		delete(c.procs, v)
		c.roster.Remove(v)
		if st, isStatic := c.topo.(*engine.StaticTopology); isStatic && c.ownTopo {
			st.G.RemoveNode(v)
		}
	}
	c.mu.Unlock()
	if ok {
		close(p.stop)
	}
}

// View queries node v's current view; nil if v is not running.
func (c *Cluster) View(v ident.NodeID) []ident.NodeID {
	c.mu.RLock()
	p, ok := c.procs[v]
	c.mu.RUnlock()
	if !ok {
		return nil
	}
	reply := make(chan state, 1)
	select {
	case p.query <- reply:
		st := <-reply
		return st.view
	case <-c.done:
		return nil
	case <-p.stop:
		return nil
	}
}

// Views snapshots every running node's view, in the roster's ascending
// order. The snapshot is not a consistent global cut (nodes answer at
// slightly different instants), which is faithful to how a distributed
// observer would see the system.
func (c *Cluster) Views() map[ident.NodeID][]ident.NodeID {
	return c.viewsOf(c.memberIDs())
}

// memberIDs copies the roster's current ascending membership.
func (c *Cluster) memberIDs() []ident.NodeID {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return append([]ident.NodeID(nil), c.roster.IDs()...)
}

// viewsOf queries exactly the given nodes' views.
func (c *Cluster) viewsOf(ids []ident.NodeID) map[ident.NodeID][]ident.NodeID {
	out := make(map[ident.NodeID][]ident.NodeID, len(ids))
	for _, v := range ids {
		if vw := c.View(v); vw != nil {
			out[v] = vw
		}
	}
	return out
}

// AwaitStableViews polls until every running node's view has been
// identical for `stable` consecutive polls or the timeout elapses.
// Returns true on stability. Polling starts after a warmup of several
// compute periods so the initial all-singleton stillness (before the
// handshakes complete) does not count as stability.
func (c *Cluster) AwaitStableViews(timeout time.Duration, stable int) bool {
	if stable < 2 {
		stable = 2
	}
	warmup := time.Duration(c.cfg.Protocol.Dmax+4) * c.cfg.ComputeEvery
	select {
	case <-time.After(warmup):
	case <-c.done:
		return false
	}
	deadline := time.Now().Add(timeout)
	var prev string
	streak := 0
	for time.Now().Before(deadline) {
		// One membership snapshot feeds both the query and the
		// fingerprint, so a node started mid-poll cannot appear in the
		// views while being skipped by the fingerprint (which would let
		// an unsettled newcomer slip past the stability check).
		ids := c.memberIDs()
		cur := fingerprint(ids, c.viewsOf(ids))
		if cur == prev {
			streak++
			if streak >= stable {
				return true
			}
		} else {
			streak = 0
			prev = cur
		}
		time.Sleep(c.cfg.ComputeEvery)
	}
	return false
}

// Introspect returns the cluster's flight-recorder registry (routed
// broadcasts, deliveries, inbox-overflow drops) — servable live via
// introspect.Serve, like the deterministic engine's.
func (c *Cluster) Introspect() *introspect.Registry { return c.reg }

// DroppedMessages returns the cumulative count of messages the router
// dropped on full inboxes. It implements radio.DropCounter, so obs-side
// consumers can treat the live cluster's loss like any counting channel.
func (c *Cluster) DroppedMessages() uint64 { return c.reg.Get(introspect.CtrRadioDrops) }

// DroppedDeliveries implements radio.DropCounter.
func (c *Cluster) DroppedDeliveries() uint64 { return c.reg.Get(introspect.CtrRadioDrops) }

// Close stops every goroutine and waits for them.
func (c *Cluster) Close() {
	close(c.done)
	c.wg.Wait()
}

// fingerprint renders the views in the given (ascending) id order. Full
// decimal IDs, unlike the seed's byte(v) truncation, so clusters with
// node IDs ≥ 256 cannot alias two distinct view states.
func fingerprint(ids []ident.NodeID, views map[ident.NodeID][]ident.NodeID) string {
	b := make([]byte, 0, 16*len(ids))
	for _, v := range ids {
		vw, ok := views[v]
		if !ok {
			continue
		}
		b = strconv.AppendUint(b, uint64(v), 10)
		b = append(b, ':')
		for _, u := range vw {
			b = strconv.AppendUint(b, uint64(u), 10)
			b = append(b, ',')
		}
		b = append(b, ';')
	}
	return string(b)
}
