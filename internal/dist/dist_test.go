package dist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/ident"
	"repro/internal/obs"
)

// captureSink records the per-round stats stream for comparison.
type captureSink struct {
	recs []obs.RoundStats
}

func (c *captureSink) Write(r obs.RoundStats) error {
	c.recs = append(c.recs, r)
	return nil
}
func (c *captureSink) Close() error { return nil }

// commuterSoak is the conformance scenario: the mostly-parked commuter
// regime (delta graph path) over a dense-enough world that the slabs
// actually interact across their boundaries every round.
func commuterSoak(rounds int) obs.SoakConfig {
	return obs.SoakConfig{
		N:              150,
		Side:           33,
		ActiveFraction: 0.08,
		Seed:           19,
		Dmax:           3,
		MaxRounds:      rounds,
		Fingerprint:    true,
	}
}

// runBoth runs the scenario single-process and sharded and returns both
// results plus the two captured stats streams.
func runBoth(t *testing.T, soak obs.SoakConfig, shards int) (ref, got *obs.SoakResult, refRecs, gotRecs []obs.RoundStats) {
	t.Helper()
	refSink := &captureSink{}
	refCfg := soak
	refCfg.Sink = refSink
	ref, err := obs.RunSoak(refCfg)
	if err != nil {
		t.Fatalf("RunSoak: %v", err)
	}
	gotSink := &captureSink{}
	distSoak := soak
	distSoak.Sink = gotSink
	got, err = RunLoopback(Config{Soak: distSoak, Shards: shards})
	if err != nil {
		t.Fatalf("RunLoopback(%d): %v", shards, err)
	}
	return ref, got, refSink.recs, gotSink.recs
}

// assertIdentical pins the conformance surface: the full per-round stats
// stream, the final stats record, and the end-of-run state fingerprint
// must be bit-identical between one process and N.
func assertIdentical(t *testing.T, shards int, ref, got *obs.SoakResult, refRecs, gotRecs []obs.RoundStats) {
	t.Helper()
	if len(refRecs) != len(gotRecs) {
		t.Fatalf("%d shards: %d records vs %d", shards, len(gotRecs), len(refRecs))
	}
	for i := range refRecs {
		if !reflect.DeepEqual(refRecs[i], gotRecs[i]) {
			t.Fatalf("%d shards: round %d diverged:\n 1p: %+v\n %dp: %+v",
				shards, i+1, refRecs[i], shards, gotRecs[i])
		}
	}
	if ref.Fingerprint != got.Fingerprint {
		t.Fatalf("%d shards: fingerprint %016x vs %016x", shards, got.Fingerprint, ref.Fingerprint)
	}
	if !reflect.DeepEqual(ref.Final, got.Final) {
		t.Fatalf("%d shards: final stats diverged:\n 1p: %+v\n Np: %+v", shards, ref.Final, got.Final)
	}
	if ref.Ticks != got.Ticks || ref.Rounds != got.Rounds {
		t.Fatalf("%d shards: %d rounds %d ticks vs %d rounds %d ticks",
			shards, got.Rounds, got.Ticks, ref.Rounds, ref.Ticks)
	}
}

// TestLoopbackConformance is the tentpole pin: the commuter scenario is
// bit-identical between the single-process engine and 2- and 4-shard
// distributed runs over the loopback transport.
func TestLoopbackConformance(t *testing.T) {
	soak := commuterSoak(40)
	for _, shards := range []int{2, 4} {
		ref, got, refRecs, gotRecs := runBoth(t, soak, shards)
		assertIdentical(t, shards, ref, got, refRecs, gotRecs)
		// The split must actually exercise the boundary protocol, or the
		// pin proves nothing.
		if got.Flight.Counters["ext_deliveries"] == 0 {
			t.Fatalf("%d shards: no external deliveries — slabs never interacted", shards)
		}
		if got.Flight.Counters["ghost_updates"] == 0 {
			t.Fatalf("%d shards: no ghost updates", shards)
		}
	}
}

// TestLoopbackConformanceWaypoint covers the all-moving regime (full
// graph rebuilds every tick, so receiver rows churn constantly and
// movers keep crossing the slab cuts mid-run — the hand-off case).
func TestLoopbackConformanceWaypoint(t *testing.T) {
	soak := obs.SoakConfig{N: 80, Side: 18, Seed: 7, Dmax: 3, MaxRounds: 30, Fingerprint: true}
	ref, got, refRecs, gotRecs := runBoth(t, soak, 3)
	assertIdentical(t, 3, ref, got, refRecs, gotRecs)
	if got.Flight.Counters["ext_deliveries"] == 0 {
		t.Fatal("no external deliveries in the all-moving regime")
	}
}

// TestCrossShardMoverHandoff pins the ownership rule under migration:
// with every node moving, nodes provably end up on the far side of
// their slab cut, yet ownership stays with the original shard and the
// trace stays identical (the partition is load-balancing only).
func TestCrossShardMoverHandoff(t *testing.T) {
	soak := obs.SoakConfig{N: 60, Side: 14, Seed: 3, Dmax: 3, MaxRounds: 25, Fingerprint: true}
	trs := NewLoopback(2)
	cfg := Config{Soak: soak, Shards: 2}
	shards := make([]*Shard, 2)
	for i := range shards {
		var err error
		if shards[i], err = NewShard(cfg, i, trs[i]); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan error, 1)
	go func() {
		for r := 0; r < soak.MaxRounds; r++ {
			if err := shards[1].StepRound(); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for r := 0; r < soak.MaxRounds; r++ {
		if err := shards[0].StepRound(); err != nil {
			t.Fatal(err)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	// Ownership never migrates even when a node's position crossed the
	// cut; and with waypoint mobility over 25 rounds someone always has.
	crossed := 0
	for i, sh := range shards {
		for _, v := range sh.Owned {
			if got := sh.owners[v]; int(got) != i {
				t.Fatalf("owned node %d of shard %d mapped to %d", v, i, got)
			}
			p, ok := sh.World.Pos(v)
			if !ok {
				t.Fatalf("node %d lost its position", v)
			}
			if sh.Part.Owner(p.X) != i {
				crossed++
			}
		}
	}
	if crossed == 0 {
		t.Fatal("no mover crossed a slab cut — the hand-off case was not exercised")
	}
	// Both replicas agree on every final node state (the replicated-world
	// invariant), checked through the per-node hashes of a merged run.
	ref, err := obs.RunSoak(obs.SoakConfig{N: 60, Side: 14, Seed: 3, Dmax: 3, MaxRounds: 25, Fingerprint: true})
	if err != nil {
		t.Fatal(err)
	}
	pairs := obs.AppendEngineHashes(nil, shards[0].E)
	pairs = obs.AppendEngineHashes(pairs, shards[1].E)
	if got := obs.FoldFingerprint(pairs); got != ref.Fingerprint {
		t.Fatalf("merged fingerprint %016x vs single-process %016x", got, ref.Fingerprint)
	}
}

// TestPartitionEdges covers the ownership function's corner cases.
func TestPartitionEdges(t *testing.T) {
	// A node exactly on a cut belongs to the higher shard.
	p := Partition{Cuts: []float64{1, 2}}
	for _, tc := range []struct {
		x    float64
		want int
	}{{0.5, 0}, {1, 1}, {1.5, 1}, {2, 2}, {3, 2}, {-1, 0}, {math.Inf(1), 2}} {
		if got := p.Owner(tc.x); got != tc.want {
			t.Errorf("Owner(%v) = %d, want %d", tc.x, got, tc.want)
		}
	}
	if p.Shards() != 3 {
		t.Errorf("Shards() = %d", p.Shards())
	}
	// One shard: no cuts, everything owned by 0.
	if q := MakePartition([]float64{5, 1, 9}, 1); len(q.Cuts) != 0 || q.Owner(1e9) != 0 {
		t.Errorf("single-shard partition: %+v", q)
	}
	// Quantile balance on distinct positions.
	xs := []float64{9, 1, 5, 3, 7, 2, 8, 4, 6, 0}
	q := MakePartition(xs, 2)
	lo := 0
	for _, x := range xs {
		if q.Owner(x) == 0 {
			lo++
		}
	}
	if lo != 5 {
		t.Errorf("2-way split of 10 distinct xs put %d in shard 0", lo)
	}
	// All nodes at one position: everything collapses into one shard —
	// legal (empty shards are allowed), ownership still total.
	same := []float64{4, 4, 4, 4}
	q = MakePartition(same, 3)
	for _, x := range same {
		if o := q.Owner(x); o < 0 || o > 2 {
			t.Errorf("degenerate partition Owner(%v) = %d", x, o)
		}
	}
}

// TestEmptyShard pins that a shard owning nothing still participates in
// the protocol (barrier, sync, final report) without perturbing the
// trace: with more shards than distinct x positions, some slabs are
// guaranteed empty.
func TestEmptyShard(t *testing.T) {
	soak := obs.SoakConfig{N: 20, Side: 10, Seed: 11, Dmax: 3, MaxRounds: 10, Static: true, Fingerprint: true}
	ref, got, refRecs, gotRecs := runBoth(t, soak, 8)
	assertIdentical(t, 8, ref, got, refRecs, gotRecs)
}

// TestAllNodesOneShard pins the degenerate split where one shard owns
// the whole population: a 1-shard "distributed" run has no peers, no
// boundary traffic, and an identical trace; and in any split, every
// boundary byte sent is a boundary byte received.
func TestAllNodesOneShard(t *testing.T) {
	soak := obs.SoakConfig{N: 24, Side: 10, Seed: 5, Dmax: 3, MaxRounds: 8, Fingerprint: true}
	ref, got, refRecs, gotRecs := runBoth(t, soak, 1)
	assertIdentical(t, 1, ref, got, refRecs, gotRecs)
	for _, ctr := range []string{"boundary_bytes_sent", "boundary_bytes_recv", "ext_deliveries", "ghost_updates"} {
		if n := got.Flight.Counters[ctr]; n != 0 {
			t.Errorf("1-shard run has %s = %d", ctr, n)
		}
	}
	// Accounting identity on a real split: sent ≡ received globally.
	res, err := RunLoopback(Config{Soak: soak, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	sent := res.Flight.Counters["boundary_bytes_sent"]
	recv := res.Flight.Counters["boundary_bytes_recv"]
	if sent != recv {
		t.Fatalf("boundary bytes sent %d != received %d", sent, recv)
	}
}

// TestValidateRejects pins the gate on configurations the split cannot
// carry deterministically.
func TestValidateRejects(t *testing.T) {
	base := Config{Soak: obs.SoakConfig{N: 10}, Shards: 2}
	bad := []Config{
		{Soak: obs.SoakConfig{N: 10}, Shards: 0},
		{Soak: obs.SoakConfig{N: 10}, Shards: 65},
		{Soak: obs.SoakConfig{N: 10, JoinRate: 0.1}, Shards: 2},
		{Soak: obs.SoakConfig{N: 10, LeaveRate: 0.1}, Shards: 2},
		{Soak: obs.SoakConfig{N: 10, Duration: 1}, Shards: 2},
	}
	if err := base.Validate(); err != nil {
		t.Fatalf("base config rejected: %v", err)
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

// TestLoopbackTransport pins the barrier semantics of the in-memory
// transport: payload integrity, self-slot handling, and close release.
func TestLoopbackTransport(t *testing.T) {
	const n = 3
	trs := NewLoopback(n)
	var results [n][][]byte
	errc := make(chan error, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			out := make([][]byte, n)
			for p := 0; p < n; p++ {
				if p != i {
					out[p] = []byte(fmt.Sprintf("%d->%d", i, p))
				}
			}
			in, err := trs[i].Exchange(7, out)
			results[i] = in
			errc <- err
		}(i)
	}
	for i := 0; i < n; i++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		if results[i][i] != nil {
			t.Fatalf("shard %d received from itself", i)
		}
		for p := 0; p < n; p++ {
			if p == i {
				continue
			}
			if got, want := string(results[i][p]), fmt.Sprintf("%d->%d", p, i); got != want {
				t.Fatalf("shard %d from %d: %q want %q", i, p, got, want)
			}
		}
	}
	// Close releases a blocked Exchange.
	done := make(chan error, 1)
	go func() {
		_, err := trs[0].Exchange(8, make([][]byte, n))
		done <- err
	}()
	trs[1].Close()
	if err := <-done; err == nil {
		t.Fatal("Exchange survived Close")
	}
}

// TestTCPTransport runs the same conformance scenario over localhost
// TCP, one goroutine per "process", and checks a 2-shard run matches
// the single-process fingerprint — the in-CI stand-in for the
// two-OS-process smoke (which scripts/dist_smoke.sh runs end to end).
func TestTCPTransport(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP mesh in -short")
	}
	soak := obs.SoakConfig{N: 60, Side: 14, Seed: 3, Dmax: 3, MaxRounds: 12, Fingerprint: true}
	refCfg := soak
	ref, err := obs.RunSoak(refCfg)
	if err != nil {
		t.Fatal(err)
	}
	addrs := []string{freeAddr(t), freeAddr(t)}
	cfg := Config{Soak: soak, Shards: 2}
	type res struct {
		r   *obs.SoakResult
		err error
	}
	ch := make(chan res, 2)
	for i := 0; i < 2; i++ {
		go func(i int) {
			r, err := RunTCP(cfg, i, addrs)
			ch <- res{r, err}
		}(i)
	}
	var lead *obs.SoakResult
	for i := 0; i < 2; i++ {
		r := <-ch
		if r.err != nil {
			t.Fatal(r.err)
		}
		if r.r != nil {
			lead = r.r
		}
	}
	if lead == nil {
		t.Fatal("no lead result")
	}
	if lead.Fingerprint != ref.Fingerprint {
		t.Fatalf("tcp fingerprint %016x vs %016x", lead.Fingerprint, ref.Fingerprint)
	}
	if !reflect.DeepEqual(lead.Final, ref.Final) {
		t.Fatalf("tcp final stats diverged:\n 1p: %+v\n 2p: %+v", ref.Final, lead.Final)
	}
}

// freeAddr reserves a localhost port by binding and releasing it.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// TestTCPSetupDeadline pins the mesh-setup bound on the listening side:
// a higher peer that never starts, connects and stays silent, or sends
// a bad hello fails DialTCP within tcpDialTimeout with an error naming
// the listening shard, and a connection that was accepted is closed.
func TestTCPSetupDeadline(t *testing.T) {
	defer func(d time.Duration) { tcpDialTimeout = d }(tcpDialTimeout)
	tcpDialTimeout = 300 * time.Millisecond

	// dialPeer connects to addr as shard 1 would, sending hello (if any).
	dialPeer := func(addr string, hello []byte) <-chan net.Conn {
		ch := make(chan net.Conn, 1)
		go func() {
			for i := 0; i < 100; i++ {
				if c, err := net.Dial("tcp", addr); err == nil {
					c.Write(hello)
					ch <- c
					return
				}
				time.Sleep(5 * time.Millisecond)
			}
			ch <- nil
		}()
		return ch
	}
	badHello := make([]byte, 4)
	binary.LittleEndian.PutUint32(badHello, 7)

	for _, tc := range []struct {
		name  string
		hello []byte // nil: the peer never starts
	}{
		{"peer never starts", nil},
		{"silent peer", []byte{}},
		{"bad hello", badHello},
	} {
		t.Run(tc.name, func(t *testing.T) {
			addrs := []string{freeAddr(t), freeAddr(t)}
			var peer <-chan net.Conn
			if tc.hello != nil {
				peer = dialPeer(addrs[0], tc.hello)
			}
			start := time.Now()
			tr, err := DialTCP(0, addrs)
			if err == nil {
				tr.Close()
				t.Fatal("DialTCP succeeded without a working peer")
			}
			if took := time.Since(start); took > 10*tcpDialTimeout {
				t.Fatalf("DialTCP took %v to fail, timeout %v", took, tcpDialTimeout)
			}
			if !strings.Contains(err.Error(), "shard 0") {
				t.Fatalf("error does not name the shard: %v", err)
			}
			if peer == nil {
				return
			}
			c := <-peer
			if c == nil {
				t.Fatal("peer never connected")
			}
			defer c.Close()
			c.SetReadDeadline(time.Now().Add(5 * time.Second))
			if _, rerr := c.Read(make([]byte, 1)); !errors.Is(rerr, io.EOF) {
				t.Fatalf("accepted conn left open after failed setup (read: %v); DialTCP error: %v", rerr, err)
			}
		})
	}
}

// TestTCPExchangeDeadline pins the per-exchange bound: a peer that
// completes the mesh setup and then never sends, or sends a truncated
// frame and stalls, fails Exchange within tcpExchangeTimeout with an
// error naming the stalled shard and the seq, instead of hanging the
// barrier forever.
func TestTCPExchangeDeadline(t *testing.T) {
	defer func(d time.Duration) { tcpExchangeTimeout = d }(tcpExchangeTimeout)
	tcpExchangeTimeout = 300 * time.Millisecond

	for _, tc := range []struct {
		name string
		// peer joins the mesh as shard 1 and misbehaves; it returns what
		// must be closed once the test is done.
		peer func(t *testing.T, addrs []string) io.Closer
	}{
		{"silent peer", func(t *testing.T, addrs []string) io.Closer {
			tr, err := DialTCP(1, addrs)
			if err != nil {
				t.Error(err)
				return io.NopCloser(nil)
			}
			return tr
		}},
		{"truncated frame", func(t *testing.T, addrs []string) io.Closer {
			var c net.Conn
			var err error
			for i := 0; i < 100; i++ {
				if c, err = net.Dial("tcp", addrs[0]); err == nil {
					break
				}
				time.Sleep(5 * time.Millisecond)
			}
			if err != nil {
				t.Error(err)
				return io.NopCloser(nil)
			}
			// Hello as shard 1, then a seq-0 header announcing 100 bytes
			// followed by only 10 of them.
			msg := binary.LittleEndian.AppendUint32(nil, 1)
			msg = binary.LittleEndian.AppendUint64(msg, 0)
			msg = binary.LittleEndian.AppendUint32(msg, 100)
			msg = append(msg, make([]byte, 10)...)
			if _, err := c.Write(msg); err != nil {
				t.Error(err)
			}
			return c
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			addrs := []string{freeAddr(t), freeAddr(t)}
			peer := make(chan io.Closer, 1)
			go func() { peer <- tc.peer(t, addrs) }()
			tr, err := DialTCP(0, addrs)
			if err != nil {
				t.Fatal(err)
			}
			defer tr.Close()
			defer func() { (<-peer).Close() }()

			start := time.Now()
			_, err = tr.Exchange(0, [][]byte{nil, []byte("payload")})
			if err == nil {
				t.Fatal("Exchange succeeded without the peer's frame")
			}
			if took := time.Since(start); took > 10*tcpExchangeTimeout {
				t.Fatalf("Exchange took %v to fail, timeout %v", took, tcpExchangeTimeout)
			}
			for _, want := range []string{"shard 0", "shard 1", "seq 0"} {
				if !strings.Contains(err.Error(), want) {
					t.Fatalf("error does not name %q: %v", want, err)
				}
			}
		})
	}
}

// TestBoundaryTrafficIsDelta pins the elision: on a mostly-parked world
// the per-round boundary frames must be far fewer than the boundary
// entries (unchanged senders ship bare version headers).
func TestBoundaryTrafficIsDelta(t *testing.T) {
	soak := commuterSoak(30)
	res, err := RunLoopback(Config{Soak: soak, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	frames := res.Flight.Counters["boundary_frames"]
	elided := res.Flight.Counters["boundary_frames_elided"]
	if frames == 0 || elided == 0 {
		t.Fatalf("boundary delta path unexercised: %d frames, %d elided", frames, elided)
	}
	if elided < frames {
		t.Fatalf("mostly-parked world elided %d < framed %d — delta encoding not engaging", elided, frames)
	}
}

// TestBoundaryTrafficSublinear pins the scaling claim behind the design:
// boundary traffic follows the slab border population (O(√n) at constant
// density), not the world population. Quadrupling n must grow the
// per-tick boundary bytes by well under 4× — ~2× is the geometric
// expectation, and 3× is the failure threshold with slack for the
// discretization of who lands in the border band.
func TestBoundaryTrafficSublinear(t *testing.T) {
	if testing.Short() {
		t.Skip("two multi-thousand-node soaks")
	}
	perTick := func(n int) float64 {
		soak := obs.SoakConfig{
			N: n, Seed: 19, Dmax: 3, ActiveFraction: 0.08, MaxRounds: 12,
		}
		res, err := RunLoopback(Config{Soak: soak, Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		return float64(res.Flight.Counters["boundary_bytes_sent"]) / float64(res.Ticks)
	}
	small, large := perTick(2000), perTick(8000)
	t.Logf("boundary bytes/tick: n=2000 %.0f, n=8000 %.0f (ratio %.2f)", small, large, large/small)
	if large >= 3*small {
		t.Fatalf("boundary traffic scaled %.2f× for 4× nodes — not sublinear (%.0f vs %.0f bytes/tick)",
			large/small, small, large)
	}
}

// TestNodeIDU32Bound documents the wire assumption that NodeIDs fit u32
// (the boundary and sync codecs truncate otherwise).
func TestNodeIDU32Bound(t *testing.T) {
	var v ident.NodeID = 1<<31 + 5
	if back := ident.NodeID(uint32(v)); back != v {
		t.Fatalf("round-trip lost bits: %d vs %d", back, v)
	}
}
