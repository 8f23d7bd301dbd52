// Package transport defines the minimal point-to-point message fabric the
// message-passing runtime (package dist) is built on, plus the
// request/response RPC engine that runtime drives.
//
// A Transport is one rank's endpoint of a P-way fabric: Send(dst, frame)
// delivers an opaque byte frame to a peer, Recv polls for inbound frames
// without blocking, and Ready signals when polling again is worthwhile, so a
// rank with nothing to do can park instead of spinning. Two implementations
// exist:
//
//   - the in-memory loopback (NewLoopback) — ranks are goroutines in one
//     address space and frames move through mutex-guarded queues; package
//     par's in-process world is this fabric;
//   - the TCP transport (Rendezvous), where ranks are processes: frames are
//     length-prefixed on full-mesh sockets, and a rendezvous handshake
//     (rank 0 listens, peers dial, an address table is exchanged) bootstraps
//     the mesh.
//
// The distributed collectives are written once against this interface, so
// the identical barrier/alltoallv/RPC code runs over both fabrics.
package transport

import (
	"errors"
	"fmt"
)

// ErrClosed is returned by Send and Recv once this endpoint has been
// closed (or aborted).
var ErrClosed = errors.New("transport: closed")

// Typed peer-failure sentinels. The distributed runtime matches on these
// with errors.Is to tell a clean shutdown race from a genuine fault:
//
//   - ErrPeerDeparted: the peer announced a graceful Close (TCP bye frame,
//     or a closed loopback inbox) before this rank was done talking to it.
//     The rest of the fabric is intact; only traffic to that peer fails.
//   - ErrPeerLost: the link died with no goodbye — a crashed or killed
//     peer. The SPMD program cannot complete, so the whole endpoint
//     reports the failure.
var (
	ErrPeerDeparted = errors.New("peer departed")
	ErrPeerLost     = errors.New("peer lost")
)

// PeerError attributes a transport failure to the peer rank it concerns.
// Send and Recv return it wrapped around ErrPeerDeparted/ErrPeerLost (or
// an injected fault), so callers can name the lost rank in diagnostics.
type PeerError struct {
	Peer int
	Err  error
}

func (e *PeerError) Error() string { return fmt.Sprintf("peer rank %d: %v", e.Peer, e.Err) }
func (e *PeerError) Unwrap() error { return e.Err }

// FrameSizeError is a send of a frame longer than MaxFrame, which no
// receiver accepts. Both fabrics refuse it before a byte moves, so the link
// stays usable.
type FrameSizeError struct {
	Len int // the frame's length in bytes
}

func (e *FrameSizeError) Error() string {
	return fmt.Sprintf("transport: frame of %d bytes exceeds MaxFrame %d", e.Len, MaxFrame)
}

// PeerOf extracts the peer rank a transport error concerns, or -1 when the
// error carries no peer attribution.
func PeerOf(err error) int {
	var pe *PeerError
	if errors.As(err, &pe) {
		return pe.Peer
	}
	return -1
}

// DepartedTracker is implemented by fabrics that remember which peers have
// gracefully departed (said bye / closed their inbox). Diagnostics use it
// to distinguish "still expected" from "already gone" peers.
type DepartedTracker interface {
	// DepartedPeers returns the ranks that have gracefully departed, in
	// ascending order.
	DepartedPeers() []int
}

// Aborter is implemented by endpoints that can die abruptly: Abort tears
// the endpoint down with no goodbye handshake, exactly like a kill -9 of
// the owning process. The fault injector uses it to simulate crashes; real
// code should call Close.
type Aborter interface {
	Abort()
}

// Transport is one rank's endpoint of a point-to-point message fabric.
//
// Ownership contract: Send takes its own snapshot of frame before
// returning (implementations copy it or fully serialise it onto the wire),
// so the caller may immediately reuse the backing array. Frames returned by
// Recv are owned by the caller: the transport never touches them again, and
// the receiver may mutate or retain them freely.
//
// Progress contract: Send must never block waiting for the destination
// rank's application to poll — frames queue at the receiver — so two ranks
// sending to each other at full inboxes cannot deadlock. A frame Send
// accepted is on its way when Send returns: nothing holds it back for a
// later call (only FrameQueuer.QueueV may, until the owner flushes). Recv is
// non-blocking: ok == false with a nil error means nothing is pending.
// Ready is how an owner that found nothing waits without spinning: the
// channel it returns receives a value, or is closed, once a later Recv may
// report a frame or an error. A wakeup may be spurious — the owner polls
// again and parks again — but none is ever lost: a frame or failure that
// arrives after a Recv came up empty always leaves Ready signalled.
//
// A Transport endpoint is owned by a single rank; calls are not safe for
// concurrent use by multiple goroutines.
type Transport interface {
	// Rank returns this endpoint's rank id in [0, Size()).
	Rank() int
	// Size returns the number of ranks in the fabric.
	Size() int
	// Send delivers frame to rank dst (dst == Rank() self-delivers).
	Send(dst int, frame []byte) error
	// Recv returns the next pending frame and its source rank.
	// ok == false with err == nil means the inbox is empty.
	Recv() (from int, frame []byte, ok bool, err error)
	// Ready returns the channel that signals a later Recv may find a frame
	// or an error. A nil channel means the endpoint will never become
	// ready (only a deadline ends the wait).
	Ready() <-chan struct{}
	// Close tears the endpoint down. Subsequent Sends and Recvs return
	// ErrClosed (pending frames are discarded).
	Close() error
}

// VectorSender is implemented by fabrics that can send a frame handed over
// in two pieces — a small header the runtime built and a body it was given
// — without first joining them in a fresh buffer. SendV(dst, hdr, body)
// delivers exactly the frame Send(dst, hdr‖body) would, under the same
// ownership contract: both pieces are snapshotted before it returns. Like
// FrameRecycler it is opt-in; callers go through the SendV function, which
// joins the pieces for endpoints (wrappers, mostly) that do not implement
// it.
type VectorSender interface {
	SendV(dst int, hdr, body []byte) error
}

// SendV sends the frame hdr‖body to dst over tp: as two pieces when the
// endpoint is a VectorSender, as one joined copy through Send otherwise (a
// frame built whole, with no body, needs no joining).
func SendV(tp Transport, dst int, hdr, body []byte) error {
	if v, ok := tp.(VectorSender); ok {
		return v.SendV(dst, hdr, body)
	}
	if len(body) == 0 {
		return tp.Send(dst, hdr)
	}
	if n := len(hdr) + len(body); n > MaxFrame {
		return &FrameSizeError{n} // refused before joining a copy of it
	}
	frame := make([]byte, 0, len(hdr)+len(body))
	frame = append(frame, hdr...)
	return tp.Send(dst, append(frame, body...))
}

// FrameQueuer is implemented by fabrics that can hold frames for a peer and
// put several on the wire in one write. QueueV(dst, hdr, body) delivers
// exactly the frame SendV(dst, hdr, body) would, under the same ownership
// contract, but the frame may wait in dst's outbox until the owner calls
// Flush or sends dst anything through Send or SendV, which writes the
// outbox ahead of its own frame: frames to one peer arrive in the order
// they were queued or sent, whichever the call. Outboxes are bounded — a
// frame that would overfill one goes out at once, behind the outbox —
// and Close writes them ahead of its goodbye; a crash (Abort) drops them.
// Like VectorSender it is opt-in: a caller that queues must flush before
// it waits on a peer, or the peer may be waiting on the queued frame.
type FrameQueuer interface {
	QueueV(dst int, hdr, body []byte) error
	// Flush writes every non-empty outbox.
	Flush() error
}
