package dist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gnbody/internal/rt"
	"gnbody/internal/trace"
	"gnbody/internal/transport"
)

// cell is the deterministic payload byte for (src, dst, i) — the same
// convention as par's property test, so exchange content verifies
// rank-locally with no shared expectation tables.
func cell(src, dst, i int) byte {
	return byte(src*31 + dst*17 + i)
}

// runWorld executes body on a fresh world with a deadlock watchdog. When
// the watchdog fires it tears the world down — closed transports unwind
// every blocked rank — and waits for the rank goroutines to exit, so a
// failed run does not leak goroutines into the rest of the test binary.
func runWorld(t *testing.T, w *World, timeout time.Duration, body func(rt.Runtime)) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- w.Run(body) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("world run: %v", err)
		}
	case <-time.After(timeout):
		w.Close()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Log("rank goroutines still blocked after world teardown")
		}
		t.Fatal("deadlock (watchdog fired)")
	}
}

// TestDistCollectivesProperty is the distributed twin of par's randomized
// collectives test: random rank counts, message sizes and RPC fan-out
// through the dissemination barrier, split-phase barrier, pairwise
// alltoallv, allreduce and the shared RPC engine — all over the loopback
// fabric, with tracing on, checked rank-locally. Run under -race it is the
// required race regression for the dist engine + barrier.
func TestDistCollectivesProperty(t *testing.T) {
	const trials = 12
	for trial := 0; trial < trials; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(4000 + trial)))
			p := 1 + rng.Intn(8)
			rounds := 1 + rng.Intn(3)
			seeds := make([]int64, p)
			for i := range seeds {
				seeds[i] = rng.Int63()
			}
			maxMsg := 1 + rng.Intn(2000)

			w, err := NewWorld(Config{P: p, Tracer: trace.New(p, trace.Config{})})
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()

			errs := make(chan error, p*rounds*4)
			runWorld(t, w, 60*time.Second, func(r rt.Runtime) {
				rg := rand.New(rand.NewSource(seeds[r.Rank()]))
				r.Serve(func(req []byte) []byte {
					resp := make([]byte, 1+len(req))
					resp[0] = byte(r.Rank())
					copy(resp[1:], req)
					return resp
				})
				wait := r.SplitBarrier()
				wait() // handlers registered everywhere beyond this point

				for round := 0; round < rounds; round++ {
					send := make([][]byte, p)
					for dst := 0; dst < p; dst++ {
						n := rg.Intn(maxMsg)
						m := make([]byte, n)
						for i := range m {
							m[i] = cell(r.Rank(), dst, i)
						}
						send[dst] = m
					}
					recv := r.Alltoallv(send)
					for src := 0; src < p; src++ {
						for i, b := range recv[src] {
							if b != cell(src, r.Rank(), i) {
								errs <- fmt.Errorf("rank %d round %d: recv[%d][%d] = %d, want %d",
									r.Rank(), round, src, i, b, cell(src, r.Rank(), i))
								return
							}
						}
					}

					val := func(rk int) int64 { return int64((rk+1)*(round+1)) * 7 }
					var sum, min, max int64
					for rk := 0; rk < p; rk++ {
						v := val(rk)
						sum += v
						if rk == 0 || v < min {
							min = v
						}
						if rk == 0 || v > max {
							max = v
						}
					}
					for _, c := range []struct {
						op   rt.Op
						want int64
					}{{rt.OpSum, sum}, {rt.OpMin, min}, {rt.OpMax, max}} {
						if got := r.Allreduce(val(r.Rank()), c.op); got != c.want {
							errs <- fmt.Errorf("rank %d round %d: Allreduce op %d = %d, want %d",
								r.Rank(), round, c.op, got, c.want)
							return
						}
					}

					nCalls := rg.Intn(64)
					outstanding := 0
					for c := 0; c < nCalls; c++ {
						owner := rg.Intn(p)
						var req [9]byte
						req[0] = byte(r.Rank())
						binary.LittleEndian.PutUint64(req[1:], rg.Uint64())
						want := append([]byte{byte(owner)}, req[:]...)
						r.AsyncCall(owner, req[:], func(resp []byte) {
							outstanding--
							if !bytes.Equal(resp, want) {
								errs <- fmt.Errorf("rank %d round %d: echo mismatch: got %x want %x",
									r.Rank(), round, resp, want)
							}
						})
						outstanding++
						if rg.Intn(3) == 0 {
							r.Progress()
						}
					}
					r.Drain(0)
					if outstanding != 0 {
						errs <- fmt.Errorf("rank %d round %d: %d callbacks missing after Drain(0)",
							r.Rank(), round, outstanding)
						return
					}

					wait := r.SplitBarrier()
					r.Progress()
					wait()
				}
				r.Barrier()
			})
			close(errs)
			for err := range errs {
				t.Error(err)
			}
		})
	}
}

// TestDistBarrierNonPow2 checks the dissemination barrier's all-arrived
// guarantee for rank counts that are not powers of two: a shared counter
// bumped before each barrier must read exactly round*P after it, on every
// rank, for many consecutive epochs.
func TestDistBarrierNonPow2(t *testing.T) {
	for _, p := range []int{1, 2, 3, 5, 6, 7} {
		p := p
		t.Run(fmt.Sprintf("P%d", p), func(t *testing.T) {
			w, err := NewWorld(Config{P: p})
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			var arrived atomic.Int64
			errs := make(chan error, p)
			runWorld(t, w, 30*time.Second, func(r rt.Runtime) {
				for round := 1; round <= 50; round++ {
					arrived.Add(1)
					r.Barrier()
					if got := arrived.Load(); got < int64(round*p) {
						errs <- fmt.Errorf("rank %d: barrier %d released with %d/%d arrivals",
							r.Rank(), round, got, round*p)
						return
					}
					r.Barrier() // keep epochs aligned before the next bump
				}
				errs <- nil
			})
			close(errs)
			for err := range errs {
				if err != nil {
					t.Error(err)
				}
			}
		})
	}
}

// TestDistSplitBarrierOverlap checks the split-phase contract: wait() must
// not release before every rank has entered phase one, and entry itself
// must not block on stragglers.
func TestDistSplitBarrierOverlap(t *testing.T) {
	const p = 4
	w, err := NewWorld(Config{P: p})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	var entered atomic.Int64
	errs := make(chan error, p)
	runWorld(t, w, 30*time.Second, func(r rt.Runtime) {
		// Stagger entry: rank 3 arrives late; the others' entry calls must
		// return immediately (they do work "between the phases" first).
		if r.Rank() == p-1 {
			time.Sleep(50 * time.Millisecond)
		}
		entered.Add(1)
		wait := r.SplitBarrier()
		wait()
		if got := entered.Load(); got != p {
			errs <- fmt.Errorf("rank %d: wait() released with %d/%d entries", r.Rank(), got, p)
			return
		}
		errs <- nil
	})
	close(errs)
	for err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}

// TestDistResetMetrics mirrors par's documented Reset semantics on the
// distributed backend: accumulate across Runs by default, clean slate
// after ResetMetrics.
func TestDistResetMetrics(t *testing.T) {
	const p = 4
	w, err := NewWorld(Config{P: p})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	body := func(r rt.Runtime) {
		send := make([][]byte, p)
		for dst := 0; dst < p; dst++ {
			send[dst] = []byte{byte(dst), 1, 2}
		}
		r.Alltoallv(send)
	}
	w.Run(body)
	base := make([]rt.Metrics, p)
	for i := 0; i < p; i++ {
		base[i] = *w.Metrics(i)
		if base[i].Msgs != p || base[i].BytesSent != 3*p {
			t.Fatalf("rank %d first run: Msgs=%d BytesSent=%d, want %d/%d",
				i, base[i].Msgs, base[i].BytesSent, p, 3*p)
		}
	}
	w.Run(body)
	for i := 0; i < p; i++ {
		if m := w.Metrics(i); m.Msgs != 2*base[i].Msgs {
			t.Errorf("rank %d second run did not accumulate: Msgs=%d", i, m.Msgs)
		}
	}
	w.ResetMetrics()
	for i := 0; i < p; i++ {
		if *w.Metrics(i) != (rt.Metrics{}) {
			t.Errorf("rank %d: metrics not zeroed: %+v", i, *w.Metrics(i))
		}
	}
	w.Run(body)
	for i := 0; i < p; i++ {
		if m := w.Metrics(i); m.Msgs != base[i].Msgs || m.BytesSent != base[i].BytesSent {
			t.Errorf("rank %d post-reset run: Msgs=%d BytesSent=%d, want %d/%d",
				i, m.Msgs, m.BytesSent, base[i].Msgs, base[i].BytesSent)
		}
	}
}

// TestDistOverTCP runs the collective smoke over a real localhost socket
// mesh: the identical collective code must behave the same as on loopback.
func TestDistOverTCP(t *testing.T) {
	const p = 4
	w, err := NewWorldOver(tcpMesh(t, p), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	errs := make(chan error, p)
	runWorld(t, w, 60*time.Second, func(r rt.Runtime) {
		r.Serve(func(req []byte) []byte { return append([]byte{byte(r.Rank())}, req...) })
		wait := r.SplitBarrier()
		wait()
		send := make([][]byte, p)
		for dst := 0; dst < p; dst++ {
			m := make([]byte, 64)
			for i := range m {
				m[i] = cell(r.Rank(), dst, i)
			}
			send[dst] = m
		}
		recv := r.Alltoallv(send)
		for src := 0; src < p; src++ {
			for i, b := range recv[src] {
				if b != cell(src, r.Rank(), i) {
					errs <- fmt.Errorf("rank %d: tcp exchange corrupt at [%d][%d]", r.Rank(), src, i)
					return
				}
			}
		}
		if got := r.Allreduce(int64(r.Rank()+1), rt.OpSum); got != int64(p*(p+1)/2) {
			errs <- fmt.Errorf("rank %d: tcp allreduce = %d", r.Rank(), got)
			return
		}
		ok := false
		r.AsyncCall((r.Rank()+1)%p, []byte("ping"), func(resp []byte) {
			ok = bytes.Equal(resp, append([]byte{byte((r.Rank() + 1) % p)}, []byte("ping")...))
		})
		r.Drain(0)
		if !ok {
			errs <- fmt.Errorf("rank %d: tcp rpc echo failed", r.Rank())
			return
		}
		r.Barrier()
		errs <- nil
	})
	close(errs)
	for err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}

// tcpMesh rendezvouses a p-wide localhost socket mesh.
func tcpMesh(t *testing.T, p int) []transport.Transport {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	fabric := make([]transport.Transport, p)
	ferrs := make([]error, p)
	var wg sync.WaitGroup
	for i := 0; i < p; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cfg := transport.TCPConfig{Addr: addr, Timeout: 20 * time.Second}
			if i == 0 {
				cfg.Listener = ln
			}
			fabric[i], ferrs[i] = transport.Rendezvous(i, p, cfg)
		}(i)
	}
	wg.Wait()
	for i, err := range ferrs {
		if err != nil {
			t.Fatalf("rendezvous rank %d: %v", i, err)
		}
	}
	return fabric
}

// TestVectoredSendCountsTheSameBytes: the collectives hand the transport a
// header and a payload instead of one joined frame. What arrives, and what
// the tier counters charge for it, must not depend on whether the fabric
// sends the two pieces as they lie (TCP) or a wrapper joins them first (the
// fault injector, with nothing injected): every rank's received rows,
// IntraBytes and InterBytes are identical across the two, and an
// alltoallv-only program is charged exactly 9 header bytes plus the payload
// per peer frame — what the joined frame weighed.
func TestVectoredSendCountsTheSameBytes(t *testing.T) {
	const p = 4
	rng := rand.New(rand.NewSource(13))
	sizes := make([][]int, p) // sizes[src][dst], some rows empty
	for src := range sizes {
		sizes[src] = make([]int, p)
		for dst := range sizes[src] {
			if rng.Intn(4) > 0 {
				sizes[src][dst] = rng.Intn(200_000)
			}
		}
	}
	type outcome struct {
		recv         [p][][]byte
		intra, inter [p]int64
	}
	run := func(nodeSize int, wrap bool, withRPC bool) outcome {
		fabric := tcpMesh(t, p)
		if wrap {
			for i, ep := range fabric {
				fabric[i] = transport.NewFault(ep, transport.FaultPlan{})
			}
		}
		w, err := NewWorldOver(fabric, Config{NodeSize: nodeSize})
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		var out outcome
		runWorld(t, w, 60*time.Second, func(r rt.Runtime) {
			send := make([][]byte, p)
			for dst, n := range sizes[r.Rank()] {
				send[dst] = make([]byte, n)
				for i := range send[dst] {
					send[dst][i] = cell(r.Rank(), dst, i)
				}
			}
			out.recv[r.Rank()] = r.Alltoallv(send)
			if withRPC {
				r.Serve(func(req []byte) []byte { return append([]byte{byte(r.Rank())}, req...) })
				r.Barrier()
				r.AsyncCall((r.Rank()+1)%p, make([]byte, 3000), func([]byte) {})
				r.Drain(0)
				r.Barrier()
			}
		})
		for rk := 0; rk < p; rk++ {
			out.intra[rk], out.inter[rk] = w.Metrics(rk).IntraBytes, w.Metrics(rk).InterBytes
		}
		return out
	}
	for _, nodeSize := range []int{0, 2} {
		vec, joined := run(nodeSize, false, true), run(nodeSize, true, true)
		for rk := 0; rk < p; rk++ {
			for src := 0; src < p; src++ {
				if !bytes.Equal(vec.recv[rk][src], joined.recv[rk][src]) || len(vec.recv[rk][src]) != sizes[src][rk] {
					t.Fatalf("node size %d: rank %d row %d differs between the vectored and the joined send", nodeSize, rk, src)
				}
				for i, b := range vec.recv[rk][src] {
					if b != cell(src, rk, i) {
						t.Fatalf("node size %d: rank %d row %d corrupt at %d", nodeSize, rk, src, i)
					}
				}
			}
		}
		if vec.intra != joined.intra || vec.inter != joined.inter {
			t.Errorf("node size %d: tier bytes differ: vectored intra %v inter %v, joined intra %v inter %v",
				nodeSize, vec.intra, vec.inter, joined.intra, joined.inter)
		}
	}
	flat := run(0, false, false)
	for rk := 0; rk < p; rk++ {
		var want int64
		for dst := 0; dst < p; dst++ {
			if dst != rk {
				want += 9 + int64(sizes[rk][dst])
			}
		}
		if flat.inter[rk] != want || flat.intra[rk] != 0 {
			t.Errorf("rank %d: alltoallv charged %d inter and %d intra bytes, want %d and 0", rk, flat.inter[rk], flat.intra[rk], want)
		}
	}
}

// TestOversizeFrameFailsTheSender: an alltoallv row longer than the fabric's
// MaxFrame fails the sending rank with a *RankError naming the operation
// and wrapping the transport's *FrameSizeError, on both fabrics alike.
// Nothing was written, so the link stays up: the peer only starves into
// its progress deadline, and a frame sent afterwards still arrives.
func TestOversizeFrameFailsTheSender(t *testing.T) {
	big := make([]byte, transport.MaxFrame+1) // never touched: virtual memory only
	for name, fabric := range map[string][]transport.Transport{
		"loopback": transport.NewLoopback(2),
		"tcp":      tcpMesh(t, 2),
	} {
		w, err := NewWorldOver(fabric, Config{ProgressDeadline: 300 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		w.Run(func(r rt.Runtime) {
			send := make([][]byte, 2)
			if r.Rank() == 0 {
				send[1] = big
			}
			r.Alltoallv(send)
		})
		var re *RankError
		var fe *transport.FrameSizeError
		if err := w.Rank(0).Err(); !errors.As(err, &re) || re.Op != "alltoallv" || !errors.As(err, &fe) {
			t.Errorf("%s: rank 0 failed with %v, want an alltoallv RankError over a FrameSizeError", name, err)
		}
		if err := fabric[0].Send(1, []byte("still up")); err != nil {
			t.Fatalf("%s: send after the refusal: %v", name, err)
		}
		deadline := time.Now().Add(10 * time.Second)
		for {
			_, frame, ok, err := fabric[1].Recv()
			if err != nil || time.Now().After(deadline) {
				t.Fatalf("%s: link down after the refusal (%v)", name, err)
			}
			if ok && string(frame) == "still up" {
				break
			}
			time.Sleep(time.Millisecond)
		}
		w.Close()
	}
}
