// The in-memory loopback fabric: ranks are goroutines of one process.
// Frames move between them through unbounded mutex-guarded FIFO queues,
// copied at Send so the sender's buffer is free the moment the call returns
// and the receiver owns what it pops — the same ownership semantics the TCP
// transport gets from serialising onto the wire. The message-passing runtime
// runs its collective code unchanged over this fabric: it is the in-process
// world of package par, and what the conformance battery and the
// race-detector property tests exercise.

package transport

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// loopItem is one queued frame.
type loopItem struct {
	from  int
	frame []byte
}

// loopQueue is one rank's unbounded inbox, the loopback's and the TCP
// endpoint's alike. ready holds at most one token: every push, the close,
// and a link failure leave it there, so an owner that found the queue empty
// can park on it and be woken by whatever comes next.
type loopQueue struct {
	mu     sync.Mutex
	items  []loopItem
	head   int
	closed bool
	ready  chan struct{}
}

func newLoopQueue() *loopQueue { return &loopQueue{ready: make(chan struct{}, 1)} }

// signal leaves the ready token, unless one is already waiting.
func (q *loopQueue) signal() {
	select {
	case q.ready <- struct{}{}:
	default:
	}
}

func (q *loopQueue) push(it loopItem) error {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return ErrClosed
	}
	q.items = append(q.items, it)
	q.mu.Unlock()
	q.signal()
	return nil
}

func (q *loopQueue) pop() (loopItem, bool, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return loopItem{}, false, ErrClosed
	}
	if q.head == len(q.items) {
		// Reset rather than grow forever: the backing array is reused.
		q.items = q.items[:0]
		q.head = 0
		return loopItem{}, false, nil
	}
	it := q.items[q.head]
	q.items[q.head] = loopItem{} // release the frame for GC
	q.head++
	return it, true, nil
}

func (q *loopQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.items = nil
	q.head = 0
	q.mu.Unlock()
	q.signal()
}

// Loopback is one rank's endpoint of the in-memory fabric.
type Loopback struct {
	rank   int
	queues []*loopQueue // shared across the fabric; queues[i] is rank i's inbox
	pool   *framePool   // shared across the fabric: receivers recycle what senders draw
	dead   atomic.Bool  // set by Abort: this endpoint has gone dark
}

var _ Transport = (*Loopback)(nil)

// NewLoopback builds an n-rank in-memory fabric and returns the per-rank
// endpoints. Endpoint i must only be used by rank i's goroutine.
func NewLoopback(n int) []Transport {
	if n <= 0 {
		panic(fmt.Sprintf("transport: loopback size %d must be positive", n))
	}
	queues := make([]*loopQueue, n)
	for i := range queues {
		queues[i] = newLoopQueue()
	}
	pool := &framePool{}
	eps := make([]Transport, n)
	for i := range eps {
		eps[i] = &Loopback{rank: i, queues: queues, pool: pool}
	}
	return eps
}

// Rank returns this endpoint's rank.
func (l *Loopback) Rank() int { return l.rank }

// Size returns the fabric's rank count.
func (l *Loopback) Size() int { return len(l.queues) }

// Send copies frame into dst's inbox (never blocks on dst's polling). A
// peer that closed its endpoint is a graceful departure: the send fails
// with ErrPeerDeparted naming that peer, and every other link stays usable
// — the same semantics the TCP fabric gets from its bye frame.
func (l *Loopback) Send(dst int, frame []byte) error { return l.SendV(dst, frame, nil) }

// SendV is Send of the frame hdr‖body: both pieces are copied straight into
// the one buffer dst's inbox receives.
func (l *Loopback) SendV(dst int, hdr, body []byte) error {
	if l.dead.Load() {
		return ErrClosed
	}
	if dst < 0 || dst >= len(l.queues) {
		return fmt.Errorf("transport: loopback send to rank %d of %d", dst, len(l.queues))
	}
	n := len(hdr) + len(body)
	if n > MaxFrame {
		return &FrameSizeError{n}
	}
	var cp []byte
	if n > 0 {
		cp = l.pool.get(n)
		copy(cp[copy(cp, hdr):], body)
	}
	if err := l.queues[dst].push(loopItem{from: l.rank, frame: cp}); err != nil {
		if dst == l.rank {
			return err // our own endpoint is closed
		}
		return &PeerError{Peer: dst,
			Err: fmt.Errorf("transport: rank %d send to rank %d: %w", l.rank, dst, ErrPeerDeparted)}
	}
	return nil
}

// QueueV is SendV: the loopback has no outbox, so the frame is in dst's
// inbox when the call returns.
func (l *Loopback) QueueV(dst int, hdr, body []byte) error { return l.SendV(dst, hdr, body) }

// Flush has nothing to write: nothing is ever queued.
func (l *Loopback) Flush() error { return nil }

// Recv pops the next pending frame, if any.
func (l *Loopback) Recv() (int, []byte, bool, error) {
	if l.dead.Load() {
		return 0, nil, false, ErrClosed
	}
	it, ok, err := l.queues[l.rank].pop()
	if err != nil || !ok {
		return 0, nil, false, err
	}
	return it.from, it.frame, true, nil
}

// Ready signals when this rank's inbox has had a frame pushed or was
// closed, or the endpoint was aborted.
func (l *Loopback) Ready() <-chan struct{} { return l.queues[l.rank].ready }

// Close shuts this rank's inbox down; this rank's own Recv gets ErrClosed
// and peers sending to it get ErrPeerDeparted from then on.
func (l *Loopback) Close() error {
	l.queues[l.rank].close()
	return nil
}

// Abort makes this endpoint go dark, as a killed process would: its own
// Send and Recv fail with ErrClosed from then on, and an owner parked on
// Ready is woken to find out. Its inbox stays open, so peers' sends still
// succeed and they notice only through their progress deadline. Safe from
// any goroutine.
func (l *Loopback) Abort() {
	l.dead.Store(true)
	l.queues[l.rank].signal()
}

// RecycleFrame returns a delivered (or otherwise dead) frame buffer to the
// fabric's pool for reuse by later Sends.
func (l *Loopback) RecycleFrame(frame []byte) { l.pool.put(frame) }

// DepartedPeers returns the ranks whose endpoints have been closed, in
// ascending order.
func (l *Loopback) DepartedPeers() []int {
	var out []int
	for p, q := range l.queues {
		if p == l.rank {
			continue
		}
		q.mu.Lock()
		closed := q.closed
		q.mu.Unlock()
		if closed {
			out = append(out, p)
		}
	}
	return out
}
