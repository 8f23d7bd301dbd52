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

// Transport is one rank's endpoint of a point-to-point message fabric.
// Every fabric and every wrapper implements all of it.
//
// Ownership contract: Send, SendV and QueueV snapshot the frame before
// returning, so the caller may reuse its backing arrays at once. A frame
// Recv returns is the caller's: the transport never touches it again
// unless the caller hands it back through RecycleFrame.
//
// Progress contract: Send must never block waiting for the destination
// rank's application to poll — frames queue at the receiver — so two ranks
// sending to each other cannot deadlock. A frame Send or SendV accepted is
// on its way when the call returns; only QueueV may hold one back, until
// the owner flushes. Recv is non-blocking: ok == false with a nil error
// means nothing is pending. Ready is how an owner that found nothing waits
// without spinning: its channel receives a value, or is closed, once a
// later Recv may report a frame or an error. A wakeup may be spurious, but
// none is ever lost.
//
// An endpoint is owned by a single rank goroutine; only Abort is safe from
// any other.
type Transport interface {
	// Rank returns this endpoint's rank id in [0, Size()).
	Rank() int
	// Size returns the number of ranks in the fabric.
	Size() int
	// Send delivers frame to rank dst (dst == Rank() self-delivers).
	Send(dst int, frame []byte) error
	// SendV is Send of the frame hdr‖body, never joined in a fresh buffer.
	SendV(dst int, hdr, body []byte) error
	// QueueV is SendV, except that the frame may wait in dst's bounded
	// outbox until Flush or the next Send or SendV to dst, which writes the
	// outbox ahead of its own frame: frames to one peer arrive in call
	// order. Close writes the outboxes ahead of its goodbye; Abort drops
	// them. An owner must flush before it waits on a peer.
	QueueV(dst int, hdr, body []byte) error
	// Flush writes every non-empty outbox.
	Flush() error
	// Recv returns the next pending frame and its source rank.
	// ok == false with err == nil means the inbox is empty.
	Recv() (from int, frame []byte, ok bool, err error)
	// Ready returns the channel that signals a later Recv may find a frame
	// or an error. A nil channel means the endpoint will never become
	// ready (only a deadline ends the wait).
	Ready() <-chan struct{}
	// RecycleFrame hands back a Recv frame the caller has fully consumed,
	// keeping no reference into it, for the fabric to fill again.
	RecycleFrame(frame []byte)
	// DepartedPeers returns the ranks that have gracefully departed (said
	// bye or closed their inbox), in ascending order.
	DepartedPeers() []int
	// Close tears the endpoint down. Subsequent Sends and Recvs return
	// ErrClosed (pending frames are discarded).
	Close() error
	// Abort kills the endpoint as a kill -9 would: no goodbye, the owner's
	// later Sends and Recvs fail with ErrClosed (a fired FaultTransport plan
	// keeps its crash or stall) and an owner parked on Ready wakes. TCP
	// peers see the links die; loopback peers notice only by deadline.
	Abort()
}
