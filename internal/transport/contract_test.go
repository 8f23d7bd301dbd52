package transport

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"testing"
	"time"
)

// endpointKinds builds a 2-rank fabric of every kind of endpoint the
// runtime runs over: each fabric bare, and with the fault injector (an
// empty plan) around rank 0's endpoint. The contract battery below runs
// every case over all four.
var endpointKinds = map[string]func(t *testing.T) []Transport{
	"loopback":            func(t *testing.T) []Transport { return NewLoopback(2) },
	"tcp":                 func(t *testing.T) []Transport { return tcpFabric(t, 2) },
	"fault-over-loopback": func(t *testing.T) []Transport { return faulted(NewLoopback(2)) },
	"fault-over-tcp":      func(t *testing.T) []Transport { return faulted(tcpFabric(t, 2)) },
}

func faulted(eps []Transport) []Transport {
	eps[0] = NewFault(eps[0], FaultPlan{})
	return eps
}

// TestSendVDeliversTheJoinedFrame: over every endpoint kind, SendV(dst,
// hdr, body) delivers exactly the frame Send(dst, hdr‖body) delivers, in
// order with it, for every way of splitting a frame (either piece may be
// empty), to a peer and to self, and the caller may scribble on both pieces
// the moment it returns.
func TestSendVDeliversTheJoinedFrame(t *testing.T) {
	for name, mk := range endpointKinds {
		t.Run(name, func(t *testing.T) {
			eps := mk(t)
			rng := rand.New(rand.NewSource(5))
			for iter := 0; iter < 300; iter++ {
				n := rng.Intn(1 << uint(rng.Intn(18))) // up to 128 KiB: several socket buffers' worth
				frame := make([]byte, n)
				rng.Read(frame)
				cut := 0
				if n > 0 {
					cut = rng.Intn(n + 1)
				}
				if iter%7 == 0 {
					cut = min(n, 9) // the alltoallv shape: a 9-byte header
				}
				dst := iter % 2
				hdr := append([]byte(nil), frame[:cut]...)
				body := append([]byte(nil), frame[cut:]...)
				if err := eps[0].SendV(dst, hdr, body); err != nil {
					t.Fatalf("iter %d: SendV: %v", iter, err)
				}
				for i := range hdr {
					hdr[i] = 0xAA
				}
				for i := range body {
					body[i] = 0xBB
				}
				if err := eps[0].Send(dst, frame); err != nil {
					t.Fatalf("iter %d: Send: %v", iter, err)
				}
				for _, how := range []string{"SendV", "Send"} {
					from, got := drainOne(t, eps[dst], 10*time.Second)
					if from != 0 || !bytes.Equal(got, frame) {
						t.Fatalf("iter %d (%d bytes cut at %d, to rank %d): %s delivered %d bytes from %d, not the frame",
							iter, n, cut, dst, how, len(got), from)
					}
				}
			}
		})
	}
}

// TestOversizeFrameRefused: a frame longer than MaxFrame, which no receiver
// accepts, fails the send with a *FrameSizeError on every endpoint kind,
// whole, in two pieces or queued, to a peer or to self, and nothing is
// written — the next frame arrives intact and the link stays up. The
// oversize body is never touched, so it costs only virtual memory.
func TestOversizeFrameRefused(t *testing.T) {
	big := make([]byte, MaxFrame+1)
	for name, mk := range endpointKinds {
		t.Run(name, func(t *testing.T) {
			eps := mk(t)
			for dst := range eps {
				for _, err := range []error{
					eps[0].Send(dst, big),
					eps[0].SendV(dst, []byte("hdr"), big[:MaxFrame-2]),
					eps[0].QueueV(dst, []byte("hdr"), big[:MaxFrame-2]),
				} {
					var fe *FrameSizeError
					if !errors.As(err, &fe) || fe.Len != MaxFrame+1 {
						t.Fatalf("to rank %d: %v, want a FrameSizeError of %d bytes", dst, err, MaxFrame+1)
					}
				}
				if err := eps[0].SendV(dst, []byte("after"), []byte(" the refusal")); err != nil {
					t.Fatalf("to rank %d: the next send failed: %v", dst, err)
				}
				if from, got := drainOne(t, eps[dst], 10*time.Second); from != 0 || string(got) != "after the refusal" {
					t.Fatalf("to rank %d: got %q from %d", dst, got, from)
				}
			}
		})
	}
}

// FuzzSendV: any header and body through SendV over the loopback fabric
// arrive as their concatenation.
func FuzzSendV(f *testing.F) {
	f.Add([]byte{2, 0, 0, 0, 0, 0, 0, 0, 9}, []byte("payload"))
	f.Add([]byte{}, []byte{})
	f.Add([]byte("h"), []byte{})
	f.Fuzz(func(t *testing.T, hdr, body []byte) {
		eps := NewLoopback(2)
		if err := eps[0].SendV(1, hdr, body); err != nil {
			t.Fatal(err)
		}
		want := append(append([]byte(nil), hdr...), body...)
		if _, got, ok, err := eps[1].Recv(); err != nil || !ok || !bytes.Equal(got, want) {
			t.Fatalf("got % x (ok %v, err %v), want % x", got, ok, err, want)
		}
	})
}

// TestLoopbackAbort: Abort, called from another goroutine while the owner
// is parked on Ready, wakes the owner, whose own Send, SendV, QueueV and
// Recv then fail with ErrClosed. The endpoint has gone dark, not departed:
// a peer's send to it still succeeds and nobody counts it departed. Bare
// and through the fault injector, which forwards Abort.
func TestLoopbackAbort(t *testing.T) {
	for _, name := range []string{"loopback", "fault-over-loopback"} {
		t.Run(name, func(t *testing.T) {
			eps := endpointKinds[name](t)
			if _, _, ok, err := eps[0].Recv(); ok || err != nil {
				t.Fatalf("fresh endpoint: ok %v, err %v", ok, err)
			}
			go func() {
				time.Sleep(20 * time.Millisecond) // the owner parks first
				eps[0].Abort()
			}()
			select {
			case <-eps[0].Ready():
			case <-time.After(10 * time.Second):
				t.Fatal("the parked owner was not woken by Abort")
			}
			if _, _, _, err := eps[0].Recv(); !errors.Is(err, ErrClosed) {
				t.Errorf("Recv after Abort: %v, want ErrClosed", err)
			}
			for _, err := range []error{
				eps[0].Send(1, []byte("x")),
				eps[0].SendV(0, []byte("x"), nil),
				eps[0].QueueV(1, []byte("x"), nil),
			} {
				if !errors.Is(err, ErrClosed) {
					t.Errorf("send after Abort: %v, want ErrClosed", err)
				}
			}
			if err := eps[1].Send(0, []byte("into the dark")); err != nil {
				t.Errorf("a peer's send to the aborted endpoint: %v", err)
			}
			if d := eps[1].DepartedPeers(); len(d) != 0 {
				t.Errorf("the peer counts %v departed, want none", d)
			}
		})
	}
}

// writeCounter is the endpoint counter the TCP fabric keeps for tests.
type writeCounter interface{ Writes() int64 }

// TestQueuedFramesKeepSendOrder: frames queued for a peer and frames sent
// to it arrive in the order the calls were made, whichever the call, with
// the frames that overflow the outbox and the self-sends among them, over
// every endpoint kind. Over TCP, queued frames cost no write until a Flush
// or the next Send to their peer, which carries them in the same one
// write; a Flush with nothing queued writes nothing.
func TestQueuedFramesKeepSendOrder(t *testing.T) {
	for name, mk := range endpointKinds {
		t.Run(name, func(t *testing.T) {
			eps := mk(t)
			inner := eps[0]
			if f, ok := inner.(*FaultTransport); ok {
				inner = f.inner
			}
			// The loopback has no outbox and no writes to count: only the
			// order is checked there.
			writes := func() int64 { return 0 }
			wc, wire := inner.(writeCounter)
			if wire {
				writes = wc.Writes
			}
			rng := rand.New(rand.NewSource(9))
			for iter := 0; iter < 100; iter++ {
				dst := 1
				if iter%10 == 9 {
					dst = 0 // self-sends bypass the outbox
				}
				var want [][]byte
				w0 := writes()
				small := true
				for k := rng.Intn(6); k >= 0; k-- {
					n := rng.Intn(300)
					if rng.Intn(8) == 0 {
						n = rng.Intn(3 * maxOutbox) // may overflow the outbox
						small = false
					}
					frame := make([]byte, n)
					rng.Read(frame)
					want = append(want, frame)
					hdr := append([]byte(nil), frame[:min(n, 5)]...)
					if err := eps[0].QueueV(dst, hdr, frame[len(hdr):]); err != nil {
						t.Fatalf("iter %d: QueueV: %v", iter, err)
					}
					for i := range hdr {
						hdr[i] ^= 0xFF // the outbox holds its own copy
					}
				}
				if wire && small && dst == 1 && writes() != w0 {
					t.Fatalf("iter %d: queuing small frames wrote %d times", iter, writes()-w0)
				}
				last := []byte(fmt.Sprintf("sent %d", iter))
				want = append(want, last)
				if iter%2 == 0 {
					if err := eps[0].Send(dst, last); err != nil {
						t.Fatalf("iter %d: Send: %v", iter, err)
					}
				} else {
					if err := eps[0].QueueV(dst, last, nil); err != nil {
						t.Fatalf("iter %d: QueueV: %v", iter, err)
					}
					if err := eps[0].Flush(); err != nil {
						t.Fatalf("iter %d: Flush: %v", iter, err)
					}
				}
				if wire && small && dst == 1 && writes() != w0+1 {
					t.Fatalf("iter %d: %d queued frames and a send or flush took %d writes, want 1",
						iter, len(want)-1, writes()-w0)
				}
				w1 := writes()
				if err := eps[0].Flush(); err != nil || writes() != w1 {
					t.Fatalf("iter %d: a Flush with nothing queued: %v, %d writes", iter, err, writes()-w1)
				}
				for i, frame := range want {
					if from, got := drainOne(t, eps[dst], 10*time.Second); from != 0 || !bytes.Equal(got, frame) {
						t.Fatalf("iter %d: frame %d of %d: got %d bytes from %d, not the frame sent %d-th",
							iter, i, len(want), len(got), from, i)
					}
				}
			}
		})
	}
}

// TestQueuedSendAllocFree: once a link's outbox has grown to its working
// size, queuing frames and flushing them allocates nothing. The endpoint is
// rank 0 of a 2-rank mesh wired by hand, its one link a socket drained into
// a fixed buffer, so the count sees the sender alone.
func TestQueuedSendAllocFree(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	peer, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	go func() {
		buf := make([]byte, 64<<10)
		for {
			if _, err := peer.Read(buf); err != nil {
				return
			}
		}
	}()
	tp := &tcpTransport{size: 2, conns: []net.Conn{nil, c}, w: make([]tcpWriter, 2),
		dirty: make([]int, 0, 2), inbox: newLoopQueue(), departed: make([]bool, 2)}
	defer tp.Abort()
	hdr, body := make([]byte, 5), make([]byte, 2500) // an RPC response's shape
	burst := func() {
		for i := 0; i < 8; i++ {
			if err := tp.QueueV(1, hdr, body); err != nil {
				t.Fatal(err)
			}
		}
		if err := tp.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	burst()
	if allocs := testing.AllocsPerRun(100, burst); allocs != 0 {
		t.Errorf("a burst of 8 queued frames and a flush allocated %.1f times", allocs)
	}
	if w := tp.Writes(); w != 102 { // AllocsPerRun runs one more burst to warm up
		t.Errorf("102 bursts took %d writes, want one each", w)
	}
}
