// The TCP transport: ranks are processes (or goroutines — the fabric does
// not care) connected by a full mesh of sockets carrying length-prefixed
// frames. The mesh is bootstrapped by a rendezvous handshake:
//
//  1. rank 0 listens on the well-known rendezvous address; every peer dials
//     it (with retry, so launch order is free);
//  2. each peer opens its own listener on an ephemeral port of the
//     interface it reached rank 0 through, and sends a hello frame
//     {rank, listen address} over its rank-0 connection;
//  3. once all P-1 hellos are in, rank 0 sends every peer the address
//     table; the hello connections become the rank0<->peer data links;
//  4. peers complete the mesh pairwise: rank i dials every rank j with
//     0 < j < i (announcing itself with an ident frame) and accepts
//     connections from every rank k > i.
//
// Per-connection reader goroutines push inbound frames onto the endpoint's
// unbounded inbox, so a Send never waits on the remote application's
// polling — the same progress guarantee the loopback fabric gives.
//
// Each link also has an outbox (QueueV): frames queued for a peer are
// appended to it, wire-encoded, and leave as the first piece of the link's
// next vectored write — a Flush, a Send, or the bye — so a burst of small
// frames costs one write, and the bytes on the wire are exactly those the
// frames would have made sent one by one.
//
// After the handshake, every frame on a data link carries a one-byte tag:
// tcpData precedes an application payload, tcpBye announces a graceful
// Close. Ranks of an SPMD job do not finish collectives simultaneously, so
// a peer that is done may tear down its endpoint while others still poll;
// the bye tag lets receivers distinguish that from a crashed peer (whose
// link dies with no bye and surfaces as a Recv/Send error).

package transport

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// TCPConfig parameterises Rendezvous.
type TCPConfig struct {
	// Addr is the rendezvous address: rank 0 listens on it, every other
	// rank dials it. Required unless Listener is set (rank 0 only).
	Addr string
	// Timeout bounds the whole handshake (default 30s).
	Timeout time.Duration
	// Listener optionally supplies rank 0's pre-bound rendezvous listener
	// (tests bind port 0 and pass the listener here); Addr is then ignored
	// on rank 0. It is closed when the handshake completes.
	Listener net.Listener
}

// handshake frame type bytes.
const (
	tcpHello = 'H' // peer -> rank 0: {rank, listen addr}
	tcpTable = 'T' // rank 0 -> peer: {addrs[0..size)}
	tcpIdent = 'I' // dialing peer -> listening peer: {rank}
)

// post-handshake per-frame tag bytes.
const (
	tcpData = 0x00 // application payload follows
	tcpBye  = 0x01 // graceful close; no more frames on this link
)

// tcpTransport is one rank's endpoint of the socket mesh.
type tcpTransport struct {
	rank, size int
	conns      []net.Conn  // per peer; nil at self
	w          []tcpWriter // per-peer write side (Close may run on another goroutine)
	dirty      []int       // peers with a queued frame since the last Flush (owner only)
	inbox      *loopQueue
	pool       framePool // recycled delivery buffers (readers draw, receiver returns)
	closed     atomic.Bool

	failMu  sync.Mutex
	failErr error

	departMu sync.Mutex
	departed []bool // peers that sent tcpBye (graceful close)
}

// tcpWriter is the write side of one peer link: the lock that serialises
// frames onto the socket and, under it, the link's outbox and the scratch a
// vectored write needs, so sending and queuing allocate nothing once the
// outbox has grown to its working size.
type tcpWriter struct {
	mu     sync.Mutex
	out    []byte      // queued frames, wire-encoded, not yet written
	pre    [5]byte     // length prefix + tag
	vec    [4][]byte   // out, pre, hdr, body
	bufs   net.Buffers // the slice WriteTo consumes; re-pointed at vec per write
	writes int64       // vectored writes made (tests count syscalls with it)
	queued bool        // listed in dirty (owner only)
}

// maxOutbox bounds a link's queued bytes: a frame that would take the
// outbox past it goes out at once, behind the outbox, with no copy. Past a
// few frames a larger outbox saves no syscall worth its copying.
const maxOutbox = 32 << 10

// writeTagged writes the outbox and then one tagged frame,
// [len+1][tag][hdr][body], as a single vectored write (one writev on a TCP
// socket): the pieces are never joined, and whatever was queued for the
// link rides the same syscall. The caller holds w.mu.
func (w *tcpWriter) writeTagged(c net.Conn, tag byte, hdr, body []byte) error {
	binary.BigEndian.PutUint32(w.pre[:4], uint32(len(hdr)+len(body))+1)
	w.pre[4] = tag
	return w.writev(c, w.pre[:], hdr, body)
}

// writev writes the outbox followed by the given pieces (any may be empty;
// writev skips them) and empties the outbox, written or not — a failed
// write has lost the link. The caller holds w.mu.
func (w *tcpWriter) writev(c net.Conn, pre, hdr, body []byte) error {
	w.vec = [4][]byte{w.out, pre, hdr, body}
	w.bufs = w.vec[:]
	_, err := w.bufs.WriteTo(c)
	w.vec = [4][]byte{} // a failed write must not pin the caller's buffers
	w.out = w.out[:0]
	w.writes++
	return err
}

// queue appends the data frame hdr‖body to the outbox as it would cross
// the wire, or writes the outbox and the frame now when it would not fit.
// The caller holds w.mu.
func (w *tcpWriter) queue(c net.Conn, hdr, body []byte) error {
	n := len(hdr) + len(body)
	if len(w.out)+5+n > maxOutbox {
		return w.writeTagged(c, tcpData, hdr, body)
	}
	w.out = binary.BigEndian.AppendUint32(w.out, uint32(n)+1)
	w.out = append(append(append(w.out, tcpData), hdr...), body...)
	return nil
}

var _ Transport = (*tcpTransport)(nil)

// Rendezvous joins (or, on rank 0, hosts) the handshake and returns this
// rank's connected endpoint. It blocks until the full mesh is up or the
// timeout expires. Every rank of the fabric must call it with the same
// size and rendezvous address.
func Rendezvous(rank, size int, cfg TCPConfig) (Transport, error) {
	if size <= 0 || rank < 0 || rank >= size {
		return nil, fmt.Errorf("transport: rendezvous rank %d of %d out of range", rank, size)
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 30 * time.Second
	}
	deadline := time.Now().Add(cfg.Timeout)
	t := &tcpTransport{
		rank:     rank,
		size:     size,
		conns:    make([]net.Conn, size),
		w:        make([]tcpWriter, size),
		dirty:    make([]int, 0, size),
		inbox:    newLoopQueue(),
		departed: make([]bool, size),
	}
	if size > 1 {
		var err error
		if rank == 0 {
			err = t.rendezvousRoot(cfg, deadline)
		} else {
			err = t.rendezvousPeer(cfg, deadline)
		}
		if err != nil {
			for _, c := range t.conns {
				if c != nil {
					c.Close()
				}
			}
			return nil, fmt.Errorf("transport: rendezvous rank %d/%d: %w", rank, size, err)
		}
	}
	for p, c := range t.conns {
		if c == nil {
			continue
		}
		c.SetDeadline(time.Time{})
		go t.reader(p, c)
	}
	return t, nil
}

// rendezvousRoot runs rank 0's side: accept P-1 hellos, broadcast the
// address table.
func (t *tcpTransport) rendezvousRoot(cfg TCPConfig, deadline time.Time) error {
	ln := cfg.Listener
	if ln == nil {
		var err error
		ln, err = net.Listen("tcp", cfg.Addr)
		if err != nil {
			return err
		}
	}
	defer ln.Close()
	if tl, ok := ln.(*net.TCPListener); ok {
		tl.SetDeadline(deadline)
	}

	type hello struct {
		rank int
		addr string
		conn net.Conn
		err  error
	}
	ch := make(chan hello, t.size-1)
	for i := 0; i < t.size-1; i++ {
		c, err := ln.Accept()
		if err != nil {
			return fmt.Errorf("accepting hellos (%d/%d in): %w", i, t.size-1, err)
		}
		go func(c net.Conn) {
			c.SetDeadline(deadline)
			r, a, err := readHello(c)
			ch <- hello{rank: r, addr: a, conn: c, err: err}
		}(c)
	}
	addrs := make([]string, t.size)
	addrs[0] = ln.Addr().String()
	for i := 0; i < t.size-1; i++ {
		h := <-ch
		if h.err != nil {
			h.conn.Close()
			return fmt.Errorf("reading hello: %w", h.err)
		}
		if h.rank <= 0 || h.rank >= t.size || t.conns[h.rank] != nil {
			h.conn.Close()
			return fmt.Errorf("hello from invalid or duplicate rank %d", h.rank)
		}
		t.conns[h.rank] = h.conn
		addrs[h.rank] = h.addr
	}
	table := encodeTable(addrs)
	for p := 1; p < t.size; p++ {
		if err := writeFrame(t.conns[p], table); err != nil {
			return fmt.Errorf("sending address table to rank %d: %w", p, err)
		}
	}
	return nil
}

// rendezvousPeer runs a non-root rank's side: dial rank 0, announce our
// listener, receive the table, then mesh with the other peers.
func (t *tcpTransport) rendezvousPeer(cfg TCPConfig, deadline time.Time) error {
	c0, err := dialRetry(cfg.Addr, deadline)
	if err != nil {
		return fmt.Errorf("dialing rank 0 at %s: %w", cfg.Addr, err)
	}
	t.conns[0] = c0
	c0.SetDeadline(deadline)

	// Listen on the interface we reached rank 0 through: that address is
	// the one other peers can reach us at (single- and multi-host).
	host, _, err := net.SplitHostPort(c0.LocalAddr().String())
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", net.JoinHostPort(host, "0"))
	if err != nil {
		return fmt.Errorf("opening peer listener: %w", err)
	}
	defer ln.Close()
	if tl, ok := ln.(*net.TCPListener); ok {
		tl.SetDeadline(deadline)
	}

	if err := writeFrame(c0, encodeHello(t.rank, ln.Addr().String())); err != nil {
		return fmt.Errorf("sending hello: %w", err)
	}
	payload, err := readFrame(c0)
	if err != nil {
		return fmt.Errorf("reading address table: %w", err)
	}
	addrs, err := decodeTable(payload, t.size)
	if err != nil {
		return err
	}

	// Complete the mesh: dial lower peer ranks, accept higher ones. Both
	// directions run concurrently; they touch disjoint conns entries.
	errc := make(chan error, 2)
	go func() {
		for j := 1; j < t.rank; j++ {
			c, err := dialRetry(addrs[j], deadline)
			if err != nil {
				errc <- fmt.Errorf("dialing rank %d at %s: %w", j, addrs[j], err)
				return
			}
			c.SetDeadline(deadline)
			if err := writeFrame(c, encodeIdent(t.rank)); err != nil {
				c.Close()
				errc <- fmt.Errorf("identing to rank %d: %w", j, err)
				return
			}
			t.conns[j] = c
		}
		errc <- nil
	}()
	go func() {
		for n := 0; n < t.size-1-t.rank; n++ {
			c, err := ln.Accept()
			if err != nil {
				errc <- fmt.Errorf("accepting peers (%d/%d in): %w", n, t.size-1-t.rank, err)
				return
			}
			c.SetDeadline(deadline)
			r, err := readIdent(c)
			if err != nil {
				c.Close()
				errc <- fmt.Errorf("reading ident: %w", err)
				return
			}
			if r <= t.rank || r >= t.size || t.conns[r] != nil {
				c.Close()
				errc <- fmt.Errorf("ident from invalid or duplicate rank %d", r)
				return
			}
			t.conns[r] = c
		}
		errc <- nil
	}()
	for i := 0; i < 2; i++ {
		if err := <-errc; err != nil {
			return err
		}
	}
	return nil
}

// reader pumps one connection's frames into the inbox until the peer says
// bye, the connection dies, or the endpoint closes. Payloads land in pooled
// buffers (the tag byte is peeled off while parsing, so a recycled buffer
// keeps its full capacity), and the header reads go through a buffered
// reader rather than extra syscalls.
func (t *tcpTransport) reader(from int, c net.Conn) {
	linkErr := func(err error) {
		if !t.closed.Load() {
			t.fail(&PeerError{Peer: from,
				Err: fmt.Errorf("transport: rank %d link to rank %d: %v: %w", t.rank, from, err, ErrPeerLost)})
		}
	}
	br := bufio.NewReaderSize(c, 64<<10)
	for {
		var hdr [4]byte
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			linkErr(err)
			return
		}
		ln := binary.BigEndian.Uint32(hdr[:])
		if ln > MaxFrame+1 { // the tag byte and at most MaxFrame payload
			linkErr(fmt.Errorf("transport: frame length %d exceeds MaxFrame %d", ln, MaxFrame))
			return
		}
		if ln == 0 {
			t.fail(fmt.Errorf("transport: rank %d got untagged frame from rank %d", t.rank, from))
			return
		}
		tag, err := br.ReadByte()
		if err != nil {
			linkErr(err)
			return
		}
		switch tag {
		case tcpBye:
			// Graceful: everything the peer sent is already queued. Remember
			// the departure so a later Send to this peer fails with the
			// typed error instead of poisoning the whole fabric.
			t.depart(from)
			return
		case tcpData:
			payload := t.pool.get(int(ln) - 1)
			if _, err := io.ReadFull(br, payload); err != nil {
				linkErr(err)
				return
			}
			if t.inbox.push(loopItem{from: from, frame: payload}) != nil {
				return // endpoint closed
			}
		default:
			t.fail(fmt.Errorf("transport: rank %d got frame tag %#x from rank %d", t.rank, tag, from))
			return
		}
	}
}

// fail records the first link error, which Send and Recv surface, and
// wakes a parked owner so it polls and finds it.
func (t *tcpTransport) fail(err error) {
	t.failMu.Lock()
	if t.failErr == nil {
		t.failErr = err
	}
	t.failMu.Unlock()
	t.inbox.signal()
}

func (t *tcpTransport) failed() error {
	t.failMu.Lock()
	defer t.failMu.Unlock()
	return t.failErr
}

// depart marks a peer as gracefully gone.
func (t *tcpTransport) depart(p int) {
	t.departMu.Lock()
	t.departed[p] = true
	t.departMu.Unlock()
}

func (t *tcpTransport) hasDeparted(p int) bool {
	t.departMu.Lock()
	defer t.departMu.Unlock()
	return t.departed[p]
}

// DepartedPeers returns the ranks that have said bye, in ascending order.
func (t *tcpTransport) DepartedPeers() []int {
	t.departMu.Lock()
	defer t.departMu.Unlock()
	var out []int
	for p, d := range t.departed {
		if d {
			out = append(out, p)
		}
	}
	return out
}

// Ready signals when a reader has queued a frame, a link has failed, or the
// endpoint was closed.
func (t *tcpTransport) Ready() <-chan struct{} { return t.inbox.ready }

// Rank returns this endpoint's rank.
func (t *tcpTransport) Rank() int { return t.rank }

// Size returns the fabric's rank count.
func (t *tcpTransport) Size() int { return t.size }

// Send writes frame to dst's socket (self-sends go straight to the inbox).
func (t *tcpTransport) Send(dst int, frame []byte) error { return t.SendV(dst, frame, nil) }

// SendV is Send of the frame hdr‖body, written to the socket from where the
// two pieces lie, behind anything queued for dst.
func (t *tcpTransport) SendV(dst int, hdr, body []byte) error {
	return t.send(dst, hdr, body, false)
}

// QueueV is SendV except that the frame may wait in dst's outbox until the
// next Flush or the next frame sent to dst.
func (t *tcpTransport) QueueV(dst int, hdr, body []byte) error {
	return t.send(dst, hdr, body, true)
}

// send is SendV, or QueueV when queue is set: one set of checks and one
// writer path for both.
func (t *tcpTransport) send(dst int, hdr, body []byte, queue bool) error {
	if t.closed.Load() {
		return ErrClosed
	}
	if err := t.failed(); err != nil {
		return err
	}
	if dst < 0 || dst >= t.size {
		return fmt.Errorf("transport: tcp send to rank %d of %d", dst, t.size)
	}
	if n := len(hdr) + len(body); n > MaxFrame {
		return &FrameSizeError{n} // the peer's reader would drop the link over it
	}
	if dst == t.rank {
		cp := t.pool.get(len(hdr) + len(body))
		copy(cp[copy(cp, hdr):], body)
		return t.inbox.push(loopItem{from: t.rank, frame: cp})
	}
	if t.hasDeparted(dst) {
		return t.departedErr(dst)
	}
	w := &t.w[dst]
	var err error
	w.mu.Lock()
	if queue {
		err = w.queue(t.conns[dst], hdr, body)
	} else {
		err = w.writeTagged(t.conns[dst], tcpData, hdr, body)
	}
	pending := len(w.out) > 0
	w.mu.Unlock()
	if pending && !w.queued {
		w.queued = true
		t.dirty = append(t.dirty, dst)
	}
	return t.linkErr(dst, err)
}

// Flush writes every outbox a frame was queued in since the last Flush,
// one write per link.
func (t *tcpTransport) Flush() error {
	if len(t.dirty) > 0 && t.closed.Load() {
		return ErrClosed // Close wrote the outboxes; Abort dropped them
	}
	for len(t.dirty) > 0 {
		dst := t.dirty[len(t.dirty)-1]
		t.dirty = t.dirty[:len(t.dirty)-1]
		w := &t.w[dst]
		w.queued = false
		var err error
		w.mu.Lock()
		if len(w.out) > 0 {
			err = w.writev(t.conns[dst], nil, nil, nil)
		}
		w.mu.Unlock()
		if err := t.linkErr(dst, err); err != nil {
			return err
		}
	}
	return nil
}

// linkErr turns a failed write to dst into the typed error Send reports,
// failing the endpoint when the link is lost; nil stays nil.
func (t *tcpTransport) linkErr(dst int, err error) error {
	if err == nil {
		return nil
	}
	// A bye can race the write: the peer closed its end between our
	// departed check and the syscall. That is still a graceful
	// departure, scoped to this one link — do not wedge the others.
	if t.hasDeparted(dst) {
		return t.departedErr(dst)
	}
	perr := &PeerError{Peer: dst,
		Err: fmt.Errorf("transport: rank %d send to rank %d: %v: %w", t.rank, dst, err, ErrPeerLost)}
	t.fail(perr)
	return perr
}

// Writes returns how many vectored writes this endpoint has made to its
// peers' sockets, byes included: one syscall each for frames that fit a
// socket buffer. Tests and benchmarks count writes with it.
func (t *tcpTransport) Writes() int64 {
	var n int64
	for p := range t.w {
		t.w[p].mu.Lock()
		n += t.w[p].writes
		t.w[p].mu.Unlock()
	}
	return n
}

// RecycleFrame returns a delivered (or otherwise dead) frame buffer to the
// endpoint's pool for reuse by the connection readers and self-sends.
func (t *tcpTransport) RecycleFrame(frame []byte) { t.pool.put(frame) }

// departedErr builds the typed send-to-departed-peer error.
func (t *tcpTransport) departedErr(dst int) error {
	return &PeerError{Peer: dst,
		Err: fmt.Errorf("transport: rank %d send to rank %d: %w", t.rank, dst, ErrPeerDeparted)}
}

// Recv pops the next pending frame; a broken link surfaces as an error
// once the inbox runs dry. A link's reader pushes the last frame it read
// before it fails the endpoint, so after seeing the failure Recv pops once
// more: a frame pushed between the first pop and the failure check is
// still delivered ahead of the error.
func (t *tcpTransport) Recv() (int, []byte, bool, error) {
	it, ok, err := t.inbox.pop()
	if err != nil {
		return 0, nil, false, err
	}
	if ok {
		return it.from, it.frame, true, nil
	}
	if ferr := t.failed(); ferr != nil {
		if it, ok, err := t.inbox.pop(); err == nil && ok {
			return it.from, it.frame, true, nil
		}
		return 0, nil, false, ferr
	}
	return 0, nil, false, nil
}

// Close announces a graceful departure (best-effort bye frame on every
// link, behind the link's outbox), then tears down the connections and the
// inbox. Frames written before the bye are still delivered: TCP flushes
// buffered data ahead of the FIN.
func (t *tcpTransport) Close() error {
	if t.closed.Swap(true) {
		return nil
	}
	for p, c := range t.conns {
		if c != nil {
			t.w[p].mu.Lock()
			t.w[p].writeTagged(c, tcpBye, nil, nil)
			t.w[p].mu.Unlock()
			c.Close()
		}
	}
	t.inbox.close()
	return nil
}

// Abort tears the endpoint down with no bye and drops every outbox unwritten
// — peers see the links die as if the owning process had been killed. The
// fault injector simulates crashes with it, and a draining dibella worker
// calls it from its signal handler.
func (t *tcpTransport) Abort() {
	if t.closed.Swap(true) {
		return
	}
	for _, c := range t.conns {
		if c != nil {
			c.Close()
		}
	}
	t.inbox.close()
}

// dialRetry dials addr until it succeeds or the deadline passes — peers may
// come up in any order, so connection refusal is retried, not fatal. The
// timeout error names the address and the last dial failure, and the
// between-attempt backoff never sleeps past the deadline.
func dialRetry(addr string, deadline time.Time) (net.Conn, error) {
	var lastErr error
	for {
		remain := time.Until(deadline)
		if remain <= 0 {
			if lastErr == nil {
				return nil, fmt.Errorf("dial %s: deadline expired before the first attempt", addr)
			}
			return nil, fmt.Errorf("dial %s: deadline expired: %w", addr, lastErr)
		}
		step := 2 * time.Second
		if remain < step {
			step = remain
		}
		c, err := net.DialTimeout("tcp", addr, step)
		if err == nil {
			return c, nil
		}
		lastErr = err
		pause := 50 * time.Millisecond
		if remain := time.Until(deadline); pause > remain {
			pause = remain
		}
		if pause > 0 {
			time.Sleep(pause)
		}
	}
}

// encodeHello builds the hello payload: type, rank, listen address.
func encodeHello(rank int, addr string) []byte {
	p := make([]byte, 0, 7+len(addr))
	p = append(p, tcpHello)
	p = binary.BigEndian.AppendUint32(p, uint32(rank))
	p = binary.BigEndian.AppendUint16(p, uint16(len(addr)))
	return append(p, addr...)
}

func readHello(c net.Conn) (rank int, addr string, err error) {
	p, err := readFrame(c)
	if err != nil {
		return 0, "", err
	}
	if len(p) < 7 || p[0] != tcpHello {
		return 0, "", fmt.Errorf("malformed hello frame (%d bytes)", len(p))
	}
	rank = int(binary.BigEndian.Uint32(p[1:5]))
	alen := int(binary.BigEndian.Uint16(p[5:7]))
	if len(p) != 7+alen {
		return 0, "", fmt.Errorf("hello address length %d does not match frame", alen)
	}
	return rank, string(p[7:]), nil
}

// encodeTable builds the address-table payload rank 0 broadcasts.
func encodeTable(addrs []string) []byte {
	n := 5
	for _, a := range addrs {
		n += 2 + len(a)
	}
	p := make([]byte, 0, n)
	p = append(p, tcpTable)
	p = binary.BigEndian.AppendUint32(p, uint32(len(addrs)))
	for _, a := range addrs {
		p = binary.BigEndian.AppendUint16(p, uint16(len(a)))
		p = append(p, a...)
	}
	return p
}

func decodeTable(p []byte, size int) ([]string, error) {
	if len(p) < 5 || p[0] != tcpTable {
		return nil, fmt.Errorf("malformed address table (%d bytes)", len(p))
	}
	if n := int(binary.BigEndian.Uint32(p[1:5])); n != size {
		return nil, fmt.Errorf("address table has %d entries, want %d", n, size)
	}
	addrs := make([]string, 0, size)
	rest := p[5:]
	for i := 0; i < size; i++ {
		if len(rest) < 2 {
			return nil, fmt.Errorf("truncated address table at entry %d", i)
		}
		alen := int(binary.BigEndian.Uint16(rest))
		rest = rest[2:]
		if len(rest) < alen {
			return nil, fmt.Errorf("truncated address table at entry %d", i)
		}
		addrs = append(addrs, string(rest[:alen]))
		rest = rest[alen:]
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%d trailing bytes after address table", len(rest))
	}
	return addrs, nil
}

// encodeIdent builds the ident payload a dialing peer announces itself with.
func encodeIdent(rank int) []byte {
	p := make([]byte, 0, 5)
	p = append(p, tcpIdent)
	return binary.BigEndian.AppendUint32(p, uint32(rank))
}

func readIdent(c net.Conn) (int, error) {
	p, err := readFrame(c)
	if err != nil {
		return 0, err
	}
	if len(p) != 5 || p[0] != tcpIdent {
		return 0, fmt.Errorf("malformed ident frame (%d bytes)", len(p))
	}
	return int(binary.BigEndian.Uint32(p[1:5])), nil
}
