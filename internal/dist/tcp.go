package dist

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// TCPTransport is the cross-process Transport: a full mesh of TCP
// connections, one per shard pair. Connection setup is deterministic —
// the lower-indexed shard listens, the higher-indexed shard dials (with
// retry, so start order doesn't matter) and identifies itself with a
// hello frame. Each frame on the wire is [seq u64][len u32][payload];
// a reader goroutine per peer decouples reads from writes so two shards
// writing to each other simultaneously cannot deadlock. Every Exchange is
// bounded by tcpExchangeTimeout, so a stalled peer fails the barrier
// with an error naming it instead of hanging the mesh.
type TCPTransport struct {
	self  int
	n     int
	conns []net.Conn
	wbufs []*bufio.Writer
	recv  []chan tcpFrame

	ln       net.Listener
	closeOne sync.Once
	closeErr error
}

type tcpFrame struct {
	seq     uint64
	payload []byte
	err     error
}

// tcpDialTimeout bounds the whole mesh setup — accepts, hello reads and
// dials alike: peers are expected to start within this window of each
// other. A variable only so tests can shorten it.
var tcpDialTimeout = 30 * time.Second

// tcpExchangeTimeout bounds each Exchange: writing to every peer and
// waiting for every peer's frame of the same seq. A peer that stalls —
// stops sending, sends half a frame, or stops reading — fails the barrier
// with an error naming it instead of hanging the mesh. It is generous
// because a healthy peer may lag by one of its own ticks; a variable only
// so tests can shorten it.
var tcpExchangeTimeout = 2 * time.Minute

// maxTCPFrame bounds a frame length header before allocating (a corrupt
// or hostile peer must not drive an arbitrary allocation).
const maxTCPFrame = 1 << 28

// DialTCP connects shard self into the mesh described by addrs (one
// listen address per shard, index-aligned). It returns once every pair
// connection is up.
func DialTCP(self int, addrs []string) (*TCPTransport, error) {
	n := len(addrs)
	if self < 0 || self >= n {
		return nil, fmt.Errorf("dist: tcp: shard %d outside %d addrs", self, n)
	}
	t := &TCPTransport{
		self:  self,
		n:     n,
		conns: make([]net.Conn, n),
		wbufs: make([]*bufio.Writer, n),
		recv:  make([]chan tcpFrame, n),
	}
	deadline := time.Now().Add(tcpDialTimeout)
	// Accept from every higher-indexed peer. The listener and each hello
	// read share the setup deadline, so a peer that never starts, or
	// connects and stays silent, fails the setup instead of hanging it.
	if self < n-1 {
		ln, err := net.Listen("tcp", addrs[self])
		if err != nil {
			return nil, fmt.Errorf("dist: tcp: shard %d: listen %s: %w", self, addrs[self], err)
		}
		t.ln = ln
		if err := ln.(*net.TCPListener).SetDeadline(deadline); err != nil {
			t.Close()
			return nil, fmt.Errorf("dist: tcp: shard %d: listen %s: %w", self, addrs[self], err)
		}
		for need := n - 1 - self; need > 0; need-- {
			conn, err := ln.Accept()
			if err != nil {
				t.Close()
				return nil, fmt.Errorf("dist: tcp: shard %d: accept (%d higher peers missing): %w", self, need, err)
			}
			peer, err := readHello(conn, deadline)
			if err == nil && (peer <= self || peer >= n || t.conns[peer] != nil) {
				err = fmt.Errorf("bad hello from shard %d", peer)
			}
			if err != nil {
				conn.Close()
				t.Close()
				return nil, fmt.Errorf("dist: tcp: shard %d: %w", self, err)
			}
			t.conns[peer] = conn
		}
	}
	// Dial every lower-indexed peer (they may not be listening yet).
	for peer := 0; peer < self; peer++ {
		for {
			conn, err := net.DialTimeout("tcp", addrs[peer], time.Second)
			if err == nil {
				var hello [4]byte
				binary.LittleEndian.PutUint32(hello[:], uint32(self))
				if _, err = conn.Write(hello[:]); err == nil {
					t.conns[peer] = conn
					break
				}
				conn.Close()
			}
			if time.Now().After(deadline) {
				t.Close()
				return nil, fmt.Errorf("dist: tcp: shard %d: dial shard %d at %s: %w", self, peer, addrs[peer], err)
			}
			time.Sleep(50 * time.Millisecond)
		}
	}
	for p, conn := range t.conns {
		if conn == nil {
			continue
		}
		if tc, ok := conn.(*net.TCPConn); ok {
			tc.SetNoDelay(true)
		}
		t.wbufs[p] = bufio.NewWriter(conn)
		// Capacity 2 matches the barrier's in-flight bound (see
		// loopFabric); the reader parks on the channel, never drops.
		t.recv[p] = make(chan tcpFrame, 2)
		go t.readLoop(p, conn)
	}
	return t, nil
}

// readHello reads a dialer's 4-byte shard index under the setup
// deadline, then clears the deadline for the mesh's lifetime.
func readHello(conn net.Conn, deadline time.Time) (int, error) {
	var hello [4]byte
	if err := conn.SetReadDeadline(deadline); err != nil {
		return 0, fmt.Errorf("hello: %w", err)
	}
	if _, err := io.ReadFull(conn, hello[:]); err != nil {
		return 0, fmt.Errorf("hello: %w", err)
	}
	if err := conn.SetReadDeadline(time.Time{}); err != nil {
		return 0, fmt.Errorf("hello: %w", err)
	}
	return int(binary.LittleEndian.Uint32(hello[:])), nil
}

func (t *TCPTransport) readLoop(peer int, conn net.Conn) {
	br := bufio.NewReader(conn)
	var hdr [12]byte
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			t.recv[peer] <- tcpFrame{err: fmt.Errorf("dist: tcp: read from shard %d: %w", peer, err)}
			return
		}
		seq := binary.LittleEndian.Uint64(hdr[:])
		size := binary.LittleEndian.Uint32(hdr[8:])
		if size > maxTCPFrame {
			t.recv[peer] <- tcpFrame{err: fmt.Errorf("dist: tcp: shard %d frame of %d bytes", peer, size)}
			return
		}
		payload := make([]byte, size)
		if _, err := io.ReadFull(br, payload); err != nil {
			t.recv[peer] <- tcpFrame{err: fmt.Errorf("dist: tcp: read from shard %d: %w", peer, err)}
			return
		}
		t.recv[peer] <- tcpFrame{seq: seq, payload: payload}
	}
}

// Exchange implements Transport.
func (t *TCPTransport) Exchange(seq uint64, out [][]byte) ([][]byte, error) {
	if len(out) != t.n {
		return nil, fmt.Errorf("dist: tcp: %d payloads for %d shards", len(out), t.n)
	}
	deadline := time.Now().Add(tcpExchangeTimeout)
	var hdr [12]byte
	for p := 0; p < t.n; p++ {
		if p == t.self {
			continue
		}
		if err := t.conns[p].SetWriteDeadline(deadline); err != nil {
			return nil, fmt.Errorf("dist: tcp: shard %d: write to shard %d at seq %d: %w", t.self, p, seq, err)
		}
		binary.LittleEndian.PutUint64(hdr[:], seq)
		binary.LittleEndian.PutUint32(hdr[8:], uint32(len(out[p])))
		w := t.wbufs[p]
		if _, err := w.Write(hdr[:]); err != nil {
			return nil, fmt.Errorf("dist: tcp: shard %d: write to shard %d at seq %d: %w", t.self, p, seq, err)
		}
		if _, err := w.Write(out[p]); err != nil {
			return nil, fmt.Errorf("dist: tcp: shard %d: write to shard %d at seq %d: %w", t.self, p, seq, err)
		}
		if err := w.Flush(); err != nil {
			return nil, fmt.Errorf("dist: tcp: shard %d: flush to shard %d at seq %d: %w", t.self, p, seq, err)
		}
	}
	timer := time.NewTimer(time.Until(deadline))
	defer timer.Stop()
	in := make([][]byte, t.n)
	for p := 0; p < t.n; p++ {
		if p == t.self {
			continue
		}
		var f tcpFrame
		select {
		case f = <-t.recv[p]:
		case <-timer.C:
			return nil, fmt.Errorf("dist: tcp: shard %d: no complete frame from shard %d for seq %d within %v",
				t.self, p, seq, tcpExchangeTimeout)
		}
		if f.err != nil {
			return nil, f.err
		}
		if f.seq != seq {
			return nil, fmt.Errorf("dist: tcp: shard %d sent seq %d, want %d", p, f.seq, seq)
		}
		in[p] = f.payload
	}
	return in, nil
}

// Close tears the mesh down; blocked reader goroutines unwind on the
// connection errors.
func (t *TCPTransport) Close() error {
	t.closeOne.Do(func() {
		if t.ln != nil {
			t.ln.Close()
		}
		for _, c := range t.conns {
			if c != nil {
				if err := c.Close(); err != nil && t.closeErr == nil {
					t.closeErr = err
				}
			}
		}
	})
	return t.closeErr
}
