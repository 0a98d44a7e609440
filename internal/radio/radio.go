// Package radio models the wireless channel between the vicinity relation
// and the protocol: which of a slot's broadcasts are actually received.
//
// The paper's system model (§2, close to IEEE 802.11) is: one-message
// channels, and a node v receives u's message only if v is not itself
// sending and no other node in v's vicinity is sending at the same time.
// The Collision channel implements exactly that; Perfect and Lossy bracket
// it from both sides for sensitivity studies (experiment E9).
package radio

import (
	"math/rand"

	"repro/internal/ident"
)

// Tx is one broadcast in a slot: the sender and the nodes its signal
// reaches (the vicinity, as computed by the space layer).
type Tx struct {
	Sender    ident.NodeID
	Receivers []ident.NodeID
}

// Delivery is a successful reception, named by its position in the
// slot's slate: txs[Tx] is the broadcast and txs[Tx].Receivers[Rx] the
// receiver. A channel can only select receptions the slate offers — it
// cannot invent a sender or a receiver — and the engine resolves a
// delivery by index, with no ID lookup.
type Delivery struct {
	Tx, Rx int32
}

// From returns the sender of d within the slate txs.
func (d Delivery) From(txs []Tx) ident.NodeID { return txs[d.Tx].Sender }

// To returns the receiver of d within the slate txs.
func (d Delivery) To(txs []Tx) ident.NodeID { return txs[d.Tx].Receivers[d.Rx] }

// Channel decides which receptions succeed among a slot's broadcasts.
type Channel interface {
	// DeliverSlot returns the successful deliveries of a slot. txs lists
	// all simultaneous broadcasts; implementations must not mutate it.
	DeliverSlot(txs []Tx, rng *rand.Rand) []Delivery
}

// BufferedChannel is the allocation-free variant: AppendDeliverSlot
// appends the slot's deliveries to buf, letting a driver recycle one
// delivery buffer across ticks. All channels in this package implement
// it; the engine uses it when available.
type BufferedChannel interface {
	Channel
	AppendDeliverSlot(txs []Tx, rng *rand.Rand, buf []Delivery) []Delivery
}

// DropCounter is implemented by channels that count the deliveries they
// suppress, so observers (internal/obs) can surface radio-layer loss
// next to the violation predicates instead of losing it silently. The
// count is cumulative over the channel's lifetime and includes any
// counting inner channel's drops.
type DropCounter interface {
	DroppedDeliveries() uint64
}

// Perfect delivers every reachable (sender, receiver) pair: no loss, no
// collisions. The fair-channel hypothesis holds trivially.
type Perfect struct{}

// DeliverSlot implements Channel.
func (p Perfect) DeliverSlot(txs []Tx, rng *rand.Rand) []Delivery {
	return p.AppendDeliverSlot(txs, rng, nil)
}

// AppendDeliverSlot implements BufferedChannel.
func (Perfect) AppendDeliverSlot(txs []Tx, _ *rand.Rand, buf []Delivery) []Delivery {
	for t, tx := range txs {
		for r := range tx.Receivers {
			buf = append(buf, Delivery{Tx: int32(t), Rx: int32(r)})
		}
	}
	return buf
}

// Lossy drops each reception independently with probability P, on top of
// an inner channel (Perfect when Inner is nil).
//
// Determinism: channel arbitration is phase 3 of the engine's Step — it
// runs sequentially on the coordinator, on the engine's single global RNG
// stream, over the slot's transmissions in canonical shard-major order.
// Lossy draws exactly one rng.Float64() per inner delivery, in that
// order, so the draw sequence is a pure function of the seed and the
// slot's traffic: it is bit-identical at any Params.Workers setting and
// any GOMAXPROCS (TestLossyDrawsWorkerIndependent pins this — the
// conformance goldens and every chaos episode record ride on it).
type Lossy struct {
	P     float64
	Inner Channel

	// Drops, when non-nil, is incremented once per suppressed delivery —
	// the drop counter chaos observers surface through the obs sink (the
	// channel itself stays a copyable stateless value).
	Drops *uint64
}

// DroppedDeliveries implements DropCounter: Lossy's own suppressions
// (when counting is armed) plus any counting inner channel's.
func (l Lossy) DroppedDeliveries() uint64 {
	var n uint64
	if l.Drops != nil {
		n = *l.Drops
	}
	if dc, ok := l.Inner.(DropCounter); ok {
		n += dc.DroppedDeliveries()
	}
	return n
}

// DeliverSlot implements Channel.
func (l Lossy) DeliverSlot(txs []Tx, rng *rand.Rand) []Delivery {
	return l.AppendDeliverSlot(txs, rng, nil)
}

// AppendDeliverSlot implements BufferedChannel. The inner channel's
// deliveries land in buf's tail and are filtered in place, so an inner
// BufferedChannel keeps the whole path allocation-free.
func (l Lossy) AppendDeliverSlot(txs []Tx, rng *rand.Rand, buf []Delivery) []Delivery {
	inner := l.Inner
	if inner == nil {
		inner = Perfect{}
	}
	start := len(buf)
	if bc, ok := inner.(BufferedChannel); ok {
		buf = bc.AppendDeliverSlot(txs, rng, buf)
	} else {
		buf = append(buf, inner.DeliverSlot(txs, rng)...)
	}
	kept := buf[:start]
	for _, d := range buf[start:] {
		if rng.Float64() >= l.P {
			kept = append(kept, d)
		} else if l.Drops != nil {
			*l.Drops++
		}
	}
	return kept
}

// Collision implements the paper's interference model: a node receives
// nothing in a slot when it is itself sending, and nothing when two or
// more senders reach it simultaneously (the one-message channel is
// destroyed by the collision).
type Collision struct{}

// DeliverSlot implements Channel.
func (c Collision) DeliverSlot(txs []Tx, rng *rand.Rand) []Delivery {
	return c.AppendDeliverSlot(txs, rng, nil)
}

// AppendDeliverSlot implements BufferedChannel (the interference maps are
// still per-call: the channel itself is a stateless value).
func (Collision) AppendDeliverSlot(txs []Tx, _ *rand.Rand, buf []Delivery) []Delivery {
	sending := make(map[ident.NodeID]bool, len(txs))
	heard := make(map[ident.NodeID]int)
	for _, tx := range txs {
		sending[tx.Sender] = true
		for _, r := range tx.Receivers {
			heard[r]++
		}
	}
	for t, tx := range txs {
		for i, r := range tx.Receivers {
			if sending[r] || heard[r] > 1 {
				continue
			}
			buf = append(buf, Delivery{Tx: int32(t), Rx: int32(i)})
		}
	}
	return buf
}
