package transport

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"
)

// drainOne polls ep until a frame arrives or the timeout passes.
func drainOne(t *testing.T, ep Transport, timeout time.Duration) (int, []byte) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		from, frame, ok, err := ep.Recv()
		if err != nil {
			t.Fatalf("rank %d Recv: %v", ep.Rank(), err)
		}
		if ok {
			return from, frame
		}
		if time.Now().After(deadline) {
			t.Fatalf("rank %d: no frame within %s", ep.Rank(), timeout)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// exerciseFabric runs the transport contract over any fabric: all-pairs
// sends (including self), FIFO order per (src,dst) pair, and delivered
// frames that are genuinely owned by the receiver.
func exerciseFabric(t *testing.T, eps []Transport) {
	t.Helper()
	n := len(eps)
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ep := eps[i]
			if ep.Rank() != i || ep.Size() != n {
				errs <- fmt.Errorf("endpoint %d reports rank %d size %d", i, ep.Rank(), ep.Size())
				return
			}
			// Two frames to every rank (self included); payload encodes
			// (src, dst, round) so receivers verify without coordination.
			buf := make([]byte, 3)
			for round := 0; round < 2; round++ {
				for dst := 0; dst < n; dst++ {
					buf[0], buf[1], buf[2] = byte(i), byte(dst), byte(round)
					if err := ep.Send(dst, buf); err != nil {
						errs <- fmt.Errorf("rank %d send to %d: %v", i, dst, err)
						return
					}
				}
			}
			// Expect 2n frames; per-source round order must be FIFO.
			lastRound := make([]int, n)
			for k := range lastRound {
				lastRound[k] = -1
			}
			for got := 0; got < 2*n; got++ {
				from, frame := drainOne(t, ep, 10*time.Second)
				if len(frame) != 3 || int(frame[0]) != from || int(frame[1]) != i {
					errs <- fmt.Errorf("rank %d: bad frame % x from %d", i, frame, from)
					return
				}
				if r := int(frame[2]); r <= lastRound[from] {
					errs <- fmt.Errorf("rank %d: out-of-order frame from %d: round %d after %d", i, from, r, lastRound[from])
					return
				} else {
					lastRound[from] = r
				}
				// Receiver owns the frame: mutating it must not corrupt
				// anything (the sender reused its buffer immediately).
				frame[0] = 0xee
			}
			errs <- nil
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}

func TestLoopbackFabric(t *testing.T) {
	exerciseFabric(t, NewLoopback(5))
}

func TestLoopbackClose(t *testing.T) {
	eps := NewLoopback(2)
	if err := eps[1].Close(); err != nil {
		t.Fatal(err)
	}
	err := eps[0].Send(1, []byte("x"))
	if !errors.Is(err, ErrPeerDeparted) {
		t.Errorf("send to closed rank: err = %v, want ErrPeerDeparted", err)
	}
	if got := PeerOf(err); got != 1 {
		t.Errorf("send to closed rank: PeerOf = %d, want 1", got)
	}
	if _, _, _, err := eps[1].Recv(); err != ErrClosed {
		t.Errorf("recv on closed rank: err = %v, want ErrClosed", err)
	}
	if err := eps[0].Send(0, []byte("y")); err != nil {
		t.Errorf("self-send on open rank: %v", err)
	}
	if got := eps[0].DepartedPeers(); len(got) != 1 || got[0] != 1 {
		t.Errorf("DepartedPeers = %v, want [1]", got)
	}
}

// tcpFabric rendezvouses an n-rank mesh on localhost and returns the
// endpoints (index = rank).
func tcpFabric(t *testing.T, n int) []Transport {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	eps := make([]Transport, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cfg := TCPConfig{Addr: addr, Timeout: 20 * time.Second}
			if i == 0 {
				cfg.Listener = ln
			}
			eps[i], errs[i] = Rendezvous(i, n, cfg)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("rendezvous rank %d: %v", i, err)
		}
	}
	t.Cleanup(func() {
		for _, ep := range eps {
			ep.Close()
		}
	})
	return eps
}

func TestTCPFabric(t *testing.T) {
	exerciseFabric(t, tcpFabric(t, 4))
}

func TestTCPSingleRank(t *testing.T) {
	eps := tcpFabric(t, 1)
	if err := eps[0].Send(0, []byte("self")); err != nil {
		t.Fatal(err)
	}
	from, frame := drainOne(t, eps[0], time.Second)
	if from != 0 || string(frame) != "self" {
		t.Fatalf("got %q from %d", frame, from)
	}
}

func TestTCPLargeFrame(t *testing.T) {
	eps := tcpFabric(t, 2)
	big := make([]byte, 1<<20)
	for i := range big {
		big[i] = byte(i * 7)
	}
	if err := eps[0].Send(1, big); err != nil {
		t.Fatal(err)
	}
	_, frame := drainOne(t, eps[1], 10*time.Second)
	if len(frame) != len(big) {
		t.Fatalf("got %d bytes, want %d", len(frame), len(big))
	}
	for i := range frame {
		if frame[i] != byte(i*7) {
			t.Fatalf("byte %d corrupted", i)
		}
	}
}

func TestTCPPeerFailureSurfaces(t *testing.T) {
	eps := tcpFabric(t, 2)
	// Kill the raw socket with no bye frame — a crashed peer, not a Close.
	eps[1].(*tcpTransport).conns[0].Close()
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, _, ok, err := eps[0].Recv()
		if err != nil {
			return // link failure surfaced, as required
		}
		if ok {
			t.Fatal("unexpected frame")
		}
		if time.Now().After(deadline) {
			t.Fatal("peer death never surfaced on Recv")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestTCPGracefulClose pins the shutdown contract: frames sent before a
// Close still arrive, and the departure does NOT surface as a link error —
// peers of a finished rank keep polling undisturbed.
func TestTCPGracefulClose(t *testing.T) {
	eps := tcpFabric(t, 2)
	if err := eps[1].Send(0, []byte("last words")); err != nil {
		t.Fatal(err)
	}
	eps[1].Close()
	from, frame := drainOne(t, eps[0], 10*time.Second)
	if from != 1 || string(frame) != "last words" {
		t.Fatalf("got %q from %d", frame, from)
	}
	// The link is gone but that must stay invisible: no error, no frames.
	deadline := time.Now().Add(300 * time.Millisecond)
	for time.Now().Before(deadline) {
		_, _, ok, err := eps[0].Recv()
		if err != nil {
			t.Fatalf("graceful close surfaced as error: %v", err)
		}
		if ok {
			t.Fatal("unexpected frame after bye")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestRendezvousTimeout(t *testing.T) {
	// Rank 1 of 3 dials a rendezvous address nobody serves.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close() // free the port: dials will be refused
	if _, err := Rendezvous(1, 3, TCPConfig{Addr: addr, Timeout: 500 * time.Millisecond}); err == nil {
		t.Fatal("rendezvous against dead address succeeded")
	}
}
