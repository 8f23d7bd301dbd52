package transport

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// exerciseRecycling stresses the RecycleFrame contract on a live fabric:
// every rank ping-pongs distinct payloads with every peer while recycling
// each frame the moment it is verified. A recycled buffer that the fabric
// hands to another in-flight delivery too early shows up as payload
// corruption (and as a data race under -race).
func exerciseRecycling(t *testing.T, eps []Transport) {
	t.Helper()
	n := len(eps)
	const rounds = 50
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ep := eps[i]
			// Variable-length payloads: [src][dst][round] then round filler
			// bytes, so pooled buffers are constantly re-sliced to new sizes.
			buf := make([]byte, 3+rounds)
			for round := 0; round < rounds; round++ {
				for dst := 0; dst < n; dst++ {
					frame := buf[:3+round]
					frame[0], frame[1], frame[2] = byte(i), byte(dst), byte(round)
					for k := 3; k < len(frame); k++ {
						frame[k] = byte(round) ^ byte(k)
					}
					if err := ep.Send(dst, frame); err != nil {
						errs <- fmt.Errorf("rank %d send to %d: %v", i, dst, err)
						return
					}
				}
				for got := 0; got < n; got++ {
					from, frame := drainOne(t, ep, 10*time.Second)
					if len(frame) != 3+int(frame[2]) || int(frame[0]) != from || int(frame[1]) != i {
						errs <- fmt.Errorf("rank %d: bad frame % x from %d", i, frame, from)
						return
					}
					for k := 3; k < len(frame); k++ {
						if frame[k] != frame[2]^byte(k) {
							errs <- fmt.Errorf("rank %d: corrupt byte %d in frame from %d round %d", i, k, from, frame[2])
							return
						}
					}
					ep.RecycleFrame(frame)
				}
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

func TestLoopbackRecycling(t *testing.T) {
	exerciseRecycling(t, NewLoopback(4))
}

func TestTCPRecycling(t *testing.T) {
	exerciseRecycling(t, tcpFabric(t, 3))
}

// TestFramePoolSizing pins the pool mechanics: a request only ever meets
// buffers of its own power-of-two class, so a recycled small frame neither
// serves nor is evicted by a larger request; fresh buffers carry their
// class's full capacity; frames beyond the largest class are allocated
// exactly and never pooled; zero-capacity slices are dropped.
func TestFramePoolSizing(t *testing.T) {
	var fp framePool
	fp.put(nil) // must not panic or pool an empty slice
	if d := fp.get(1); len(d) != 1 || cap(d) != 1<<minClassBits {
		t.Fatalf("get(1) = len %d cap %d, want 1 and %d", len(d), cap(d), 1<<minClassBits)
	}
	for _, n := range []int{0, 11, 64, 65, 200, 10_600, 1 << maxClassBits} {
		b := fp.get(n)
		if len(b) != n || cap(b) < n || cap(b)&(cap(b)-1) != 0 || (cap(b) > 1<<minClassBits && cap(b) >= 2*n) {
			t.Fatalf("get(%d): len %d cap %d, want the smallest class that fits", n, len(b), cap(b))
		}
	}

	// A foreign buffer (capacity 100) files under class 64 and serves only
	// requests that class covers. sync.Pool may drop a Put (it does so at
	// random under the race detector), so reuse is required to happen at
	// least once over many tries rather than every time.
	reused := false
	for try := 0; try < 100 && !reused; try++ {
		fp.put(make([]byte, 0, 100))
		if c := fp.get(200); cap(c) != 256 {
			t.Fatalf("get(200) met a buffer of cap %d from another class", cap(c))
		}
		b := fp.get(40)
		if len(b) != 40 || (cap(b) != 100 && cap(b) != 64) {
			t.Fatalf("get(40) after put(cap 100): len %d cap %d", len(b), cap(b))
		}
		reused = cap(b) == 100
	}
	if !reused {
		t.Error("a recycled buffer was never reused in 100 tries")
	}

	// Mixed traffic: an 11-byte token recycled between two 10 kB responses
	// must not cost the second response its buffer.
	reused = false
	for try := 0; try < 100 && !reused; try++ {
		resp := fp.get(10_600)
		resp[0] = 0xA5
		fp.put(resp)
		fp.put(fp.get(11))
		again := fp.get(10_900)
		reused = again[0] == 0xA5
	}
	if !reused {
		t.Error("a recycled 10 kB buffer never survived a recycled token")
	}

	big := fp.get(1<<maxClassBits + 1)
	if cap(big) != len(big) {
		t.Fatalf("oversize get: cap %d != len %d", cap(big), len(big))
	}
	big[0] = 0x5A
	fp.put(big)
	if again := fp.get(1<<maxClassBits + 1); again[0] == 0x5A {
		t.Error("an oversize frame was pooled")
	}
}
