package radio

import (
	"math/rand"
	"testing"

	"repro/internal/ident"
)

func n(v uint32) ident.NodeID { return ident.NodeID(v) }

func TestPerfectDeliversAll(t *testing.T) {
	txs := []Tx{
		{Sender: n(1), Receivers: []ident.NodeID{2, 3}},
		{Sender: n(2), Receivers: []ident.NodeID{1}},
	}
	got := Perfect{}.DeliverSlot(txs, nil)
	if len(got) != 3 {
		t.Fatalf("deliveries = %v", got)
	}
}

func TestLossyExtremes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	txs := []Tx{{Sender: n(1), Receivers: []ident.NodeID{2, 3, 4}}}
	if got := (Lossy{P: 0}).DeliverSlot(txs, rng); len(got) != 3 {
		t.Fatalf("P=0 lost messages: %v", got)
	}
	if got := (Lossy{P: 1}).DeliverSlot(txs, rng); len(got) != 0 {
		t.Fatalf("P=1 delivered: %v", got)
	}
}

func TestLossyRate(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	txs := []Tx{{Sender: n(1), Receivers: []ident.NodeID{2}}}
	ch := Lossy{P: 0.3}
	delivered := 0
	const trials = 10000
	for i := 0; i < trials; i++ {
		delivered += len(ch.DeliverSlot(txs, rng))
	}
	rate := float64(delivered) / trials
	if rate < 0.65 || rate > 0.75 {
		t.Fatalf("delivery rate %v, want ≈0.7", rate)
	}
}

func TestCollisionTwoSendersJam(t *testing.T) {
	// 1 and 2 both reach 3: collision, 3 hears nothing. 4 hears only 1.
	txs := []Tx{
		{Sender: n(1), Receivers: []ident.NodeID{3, 4}},
		{Sender: n(2), Receivers: []ident.NodeID{3}},
	}
	got := Collision{}.DeliverSlot(txs, nil)
	if len(got) != 1 || got[0].From(txs) != 1 || got[0].To(txs) != 4 {
		t.Fatalf("deliveries = %v", got)
	}
}

func TestCollisionSenderCannotReceive(t *testing.T) {
	txs := []Tx{
		{Sender: n(1), Receivers: []ident.NodeID{2}},
		{Sender: n(2), Receivers: []ident.NodeID{1}},
	}
	if got := (Collision{}).DeliverSlot(txs, nil); len(got) != 0 {
		t.Fatalf("senders received while sending: %v", got)
	}
}

func TestCollisionSingleSenderDelivers(t *testing.T) {
	txs := []Tx{{Sender: n(1), Receivers: []ident.NodeID{2, 3}}}
	if got := (Collision{}).DeliverSlot(txs, nil); len(got) != 2 {
		t.Fatalf("deliveries = %v", got)
	}
}

func TestLossyOverCollision(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	txs := []Tx{
		{Sender: n(1), Receivers: []ident.NodeID{3}},
		{Sender: n(2), Receivers: []ident.NodeID{3}},
	}
	ch := Lossy{P: 0, Inner: Collision{}}
	if got := ch.DeliverSlot(txs, rng); len(got) != 0 {
		t.Fatalf("collision must survive composition: %v", got)
	}
}

func TestChannelsDoNotMutateInput(t *testing.T) {
	txs := []Tx{{Sender: n(1), Receivers: []ident.NodeID{2, 3}}}
	rng := rand.New(rand.NewSource(4))
	_ = Perfect{}.DeliverSlot(txs, rng)
	_ = (Lossy{P: 0.5}).DeliverSlot(txs, rng)
	_ = (Collision{}).DeliverSlot(txs, rng)
	if len(txs[0].Receivers) != 2 || txs[0].Receivers[0] != 2 {
		t.Fatal("input mutated")
	}
}
