package transport

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"time"
)

// joinOnly hides an endpoint's VectorSender, as a wrapper that forwards
// only the Transport methods does, so SendV must take the joined-frame
// fallback.
type joinOnly struct{ Transport }

// TestSendVDeliversTheJoinedFrame: over every fabric — and through the
// wrappers that fall back to joining — SendV(dst, hdr, body) delivers
// exactly the frame Send(dst, hdr‖body) delivers, in order with it, for
// every way of splitting a frame (either piece may be empty), to a peer and
// to self, and the caller may scribble on both pieces the moment it
// returns.
func TestSendVDeliversTheJoinedFrame(t *testing.T) {
	fabrics := map[string]func() []Transport{
		"loopback": func() []Transport { return NewLoopback(2) },
		"tcp":      func() []Transport { return tcpFabric(t, 2) },
		"fault-over-tcp": func() []Transport {
			eps := tcpFabric(t, 2)
			eps[0] = NewFault(eps[0], FaultPlan{})
			return eps
		},
		"join-only-over-loopback": func() []Transport {
			eps := NewLoopback(2)
			eps[0] = joinOnly{eps[0]}
			return eps
		},
	}
	for name, mk := range fabrics {
		t.Run(name, func(t *testing.T) {
			eps := mk()
			if _, vectored := eps[0].(VectorSender); vectored != (name == "loopback" || name == "tcp") {
				t.Fatalf("endpoint 0 implements VectorSender: %v", vectored)
			}
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
				if err := SendV(eps[0], dst, hdr, body); err != nil {
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
// accepts, fails the send with a *FrameSizeError on every fabric, whole or
// in two pieces, to a peer or to self, and nothing is written — the next
// frame arrives intact and the link stays up. The oversize body is never
// touched, so it costs only virtual memory.
func TestOversizeFrameRefused(t *testing.T) {
	big := make([]byte, MaxFrame+1)
	fabrics := map[string]func() []Transport{
		"loopback": func() []Transport { return NewLoopback(2) },
		"tcp":      func() []Transport { return tcpFabric(t, 2) },
		"join-only-over-loopback": func() []Transport {
			eps := NewLoopback(2)
			eps[0] = joinOnly{eps[0]}
			return eps
		},
	}
	for name, mk := range fabrics {
		t.Run(name, func(t *testing.T) {
			eps := mk()
			for dst := range eps {
				for _, err := range []error{
					eps[0].Send(dst, big),
					SendV(eps[0], dst, []byte("hdr"), big[:MaxFrame-2]),
				} {
					var fe *FrameSizeError
					if !errors.As(err, &fe) || fe.Len != MaxFrame+1 {
						t.Fatalf("to rank %d: %v, want a FrameSizeError of %d bytes", dst, err, MaxFrame+1)
					}
				}
				if err := SendV(eps[0], dst, []byte("after"), []byte(" the refusal")); err != nil {
					t.Fatalf("to rank %d: the next send failed: %v", dst, err)
				}
				if from, got := drainOne(t, eps[dst], 10*time.Second); from != 0 || string(got) != "after the refusal" {
					t.Fatalf("to rank %d: got %q from %d", dst, got, from)
				}
			}
		})
	}
}

// FuzzSendV: any header and body through SendV over the loopback fabric,
// vectored and joined, arrive as their concatenation.
func FuzzSendV(f *testing.F) {
	f.Add([]byte{2, 0, 0, 0, 0, 0, 0, 0, 9}, []byte("payload"))
	f.Add([]byte{}, []byte{})
	f.Add([]byte("h"), []byte{})
	f.Fuzz(func(t *testing.T, hdr, body []byte) {
		eps := NewLoopback(2)
		want := append(append([]byte(nil), hdr...), body...)
		for i, ep := range []Transport{eps[0], joinOnly{eps[0]}} {
			if err := SendV(ep, 1, hdr, body); err != nil {
				t.Fatal(err)
			}
			_, got, ok, err := eps[1].Recv()
			if err != nil || !ok || !bytes.Equal(got, want) {
				t.Fatalf("%s: got % x (ok %v, err %v), want % x", []string{"vectored", "joined"}[i], got, ok, err, want)
			}
		}
	})
}
