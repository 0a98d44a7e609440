package engine

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/ident"
	"repro/internal/radio"
	"repro/internal/wire"
)

// scriptedDrops is a perfect channel that suppresses exactly the
// receptions drop selects, by engine tick; the rest it emits as slate
// positions.
type scriptedDrops struct {
	e    *Engine
	drop func(tick int, from, to ident.NodeID) bool
}

func (c *scriptedDrops) DeliverSlot(txs []radio.Tx, _ *rand.Rand) []radio.Delivery {
	var out []radio.Delivery
	for t, tx := range txs {
		for r, u := range tx.Receivers {
			if !c.drop(c.e.tick, tx.Sender, u) {
				out = append(out, radio.Delivery{Tx: int32(t), Rx: int32(r)})
			}
		}
	}
	return out
}

// TestInboxKeepsSupersededBroadcast pins the lifetime contract of the
// by-reference inbox. Receiver r gets sender s's broadcast at version v
// in the tick s computes; s's state then moves and its broadcast is
// rebuilt, and every later delivery from s to r is dropped until r
// computes. r must compute on version v, the message it was delivered —
// not on the rebuilt one its inbox would see if the engine overwrote a
// cached broadcast in place. The engine run is compared, node by node
// and tick by tick, with a reference driver that schedules the same
// sends, drops and computes over plain core.Nodes and deep-copies every
// delivery through core.Node.Receive.
func TestInboxKeepsSupersededBroadcast(t *testing.T) {
	const tc, ticks = 4, 48
	g := graph.Line(6)
	p := Params{Cfg: core.Config{Dmax: 3}, Ts: 1, Tc: tc, Jitter: true, Seed: 7}

	// Pick an adjacent pair whose compute timers differ in phase, so s
	// computes (and rebuilds) between a delivery and r's next compute.
	phases := map[ident.NodeID]int{}
	probe := NewStatic(p, g)
	for _, v := range g.Nodes() {
		phases[v] = probe.recs[probe.order.SlotOf(v)].phase
	}
	var s, r ident.NodeID
	for _, v := range g.Nodes() {
		for _, u := range g.Neighbors(v) {
			if s == ident.None && phases[v] != phases[u] {
				s, r = v, u
			}
		}
	}
	if s == ident.None {
		t.Fatal("all phases equal: pick another seed")
	}
	computes := func(v ident.NodeID, tick int) bool { return (tick+phases[v])%tc == 0 }

	exercised := 0
	for cr := 1; cr < ticks-tc; cr++ {
		if !computes(r, cr) {
			continue
		}
		// cs is s's last compute before r's compute at cr: deliver s→r
		// at cs (built before s computes), drop s→r after it up to cr.
		cs := cr - 1
		for !computes(s, cs) {
			cs--
		}
		drop := func(tick int, from, to ident.NodeID) bool {
			return from == s && to == r && tick > cs && tick <= cr
		}

		ch := &scriptedDrops{drop: drop}
		q := p
		q.Channel = ch
		e := NewStatic(q, g)
		ch.e = e
		ref := map[ident.NodeID]*core.Node{}
		for _, v := range g.Nodes() {
			ref[v] = core.NewNode(v, p.Cfg)
		}

		sRec := &e.recs[e.order.SlotOf(s)]
		var delivered *core.Message
		for tick := 0; tick < ticks; tick++ {
			e.Step()
			if tick == cs {
				delivered = sRec.cm.m
			}
			if tick == cr && sRec.cm.m != delivered && sRec.cm.ver != ^uint64(0) {
				exercised++ // s rebuilt between the delivery and r's compute
			}

			msgs := map[ident.NodeID]core.Message{}
			for _, v := range g.Nodes() {
				msgs[v] = ref[v].BuildMessage()
			}
			for _, v := range g.Nodes() {
				for _, u := range g.Neighbors(v) {
					if !drop(tick, v, u) {
						m := msgs[v]
						ref[u].Receive(core.Message{
							From: m.From, List: m.List.Clone(),
							Recs: slices.Clone(m.Recs), GroupPrio: m.GroupPrio,
						})
					}
				}
			}
			for _, v := range g.Nodes() {
				if computes(v, tick) {
					ref[v].Compute()
				}
			}

			for _, v := range g.Nodes() {
				got, want := e.Nodes[v], ref[v]
				if got.Version() != want.Version() || !got.List().Equal(want.List()) ||
					!slices.Equal(got.View(), want.View()) ||
					!bytes.Equal(wire.Encode(got.BuildMessage()), wire.Encode(want.BuildMessage())) {
					t.Fatalf("r=%v computing at %d after s=%v's delivery at %d: node %v at tick %d: engine %v, reference %v",
						r, cr, s, cs, v, tick, got, want)
				}
			}
		}
	}
	if exercised == 0 {
		t.Fatal("s never rebuilt its broadcast between the delivery and r's compute: the scenario exercises nothing")
	}
}
