package par

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"gnbody/internal/rt"
)

// TestAlltoallvDeliveryIsolation is the regression test for the buffer
// aliasing bug: Alltoallv used to hand the receiver the sender's own staged
// slices, so a receiver mutating its "own" data scribbled over the sender's
// buffers (and raced its re-reads under the race detector). With
// copy-on-delivery, every rank may mutate everything it received while
// every sender concurrently re-reads and reuses its staging — no barrier in
// between — and the next exchange still moves pristine data.
func TestAlltoallvDeliveryIsolation(t *testing.T) {
	const P = 4
	const N = 512
	w, err := NewWorld(Config{P: P})
	if err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, P)
	w.Run(func(r rt.Runtime) {
		mk := func(round int) [][]byte {
			send := make([][]byte, P)
			for dst := 0; dst < P; dst++ {
				m := make([]byte, N)
				for i := range m {
					m[i] = cell(r.Rank(), dst, i+round)
				}
				send[dst] = m
			}
			return send
		}
		send := mk(0)
		recv := r.Alltoallv(send)

		// Deliberately racy window: mutate every received buffer while
		// re-reading our own staged buffers, with no synchronisation. The
		// old aliasing made this a data race and corrupted peers' staging.
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for src := range recv {
				for i := range recv[src] {
					recv[src][i] = 0xAA
				}
			}
		}()
		for dst := 0; dst < P; dst++ {
			for i, b := range send[dst] {
				if b != cell(r.Rank(), dst, i) {
					errs <- fmt.Errorf("rank %d: own staged buffer for %d mutated at %d", r.Rank(), dst, i)
					wg.Wait()
					return
				}
			}
		}
		wg.Wait()

		// Re-exchange the same (still pristine) staging: contents must be
		// exactly the round-0 payloads again.
		recv2 := r.Alltoallv(send)
		for src := 0; src < P; src++ {
			for i, b := range recv2[src] {
				if b != cell(src, r.Rank(), i) {
					errs <- fmt.Errorf("rank %d: second exchange corrupted: recv[%d][%d]=%d", r.Rank(), src, i, b)
					return
				}
			}
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

// TestRPCDeliveryIsolation pins the RPC half of the ownership contract:
// responses are snapshotted as they are sent, so a caller mutating what its
// callback received cannot corrupt the server's retained response buffers.
// The callback keeps a copy, because the runtime may recycle the buffer it
// was handed once the callback returns.
func TestRPCDeliveryIsolation(t *testing.T) {
	const P = 3
	const calls = 64
	w, err := NewWorld(Config{P: P})
	if err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, P*2)
	w.Run(func(r rt.Runtime) {
		// Each server retains every response buffer it returned and
		// verifies them untouched at the end.
		var served [][]byte
		r.Serve(func(req []byte) []byte {
			resp := make([]byte, len(req))
			copy(resp, req)
			served = append(served, resp)
			return resp
		})
		wait := r.SplitBarrier()
		wait()

		owner := (r.Rank() + 1) % P
		got := make([][]byte, 0, calls)
		for c := 0; c < calls; c++ {
			req := []byte{byte(r.Rank()), byte(c)}
			r.AsyncCall(owner, req, func(resp []byte) {
				// Mutate immediately: with aliasing this would trash the
				// server's retained buffer.
				for i := range resp {
					resp[i] ^= 0xFF
				}
				got = append(got, bytes.Clone(resp))
			})
		}
		r.Drain(0)
		r.Barrier() // all service complete everywhere
		for c, g := range got {
			want := []byte{byte(r.Rank()) ^ 0xFF, byte(c) ^ 0xFF}
			if !bytes.Equal(g, want) {
				errs <- fmt.Errorf("rank %d call %d: callback buffer %x, want %x", r.Rank(), c, g, want)
				return
			}
		}
		from := (r.Rank() - 1 + P) % P
		for c, s := range served {
			want := []byte{byte(from), byte(c)}
			if !bytes.Equal(s, want) {
				errs <- fmt.Errorf("rank %d: retained response %d corrupted by caller: %x, want %x", r.Rank(), c, s, want)
				return
			}
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

// TestWorldResetMetrics pins the repeated-Run semantics: metrics accumulate
// across Runs by default (the historical behaviour, now documented), and
// ResetMetrics gives the next Run a clean slate.
func TestWorldResetMetrics(t *testing.T) {
	const P = 4
	w, err := NewWorld(Config{P: P})
	if err != nil {
		t.Fatal(err)
	}
	body := func(r rt.Runtime) {
		send := make([][]byte, P)
		for dst := 0; dst < P; dst++ {
			send[dst] = []byte{byte(dst), 1, 2}
		}
		r.Alltoallv(send)
	}
	w.Run(body)
	base := make([]rt.Metrics, P)
	for i := 0; i < P; i++ {
		base[i] = *w.Metrics(i)
		if base[i].Msgs != P || base[i].BytesSent != 3*P {
			t.Fatalf("rank %d first run: Msgs=%d BytesSent=%d, want %d/%d",
				i, base[i].Msgs, base[i].BytesSent, P, 3*P)
		}
		if base[i].Elapsed <= 0 {
			t.Fatalf("rank %d: Elapsed not recorded", i)
		}
	}

	w.Run(body) // accumulates
	for i := 0; i < P; i++ {
		m := w.Metrics(i)
		if m.Msgs != 2*base[i].Msgs || m.BytesSent != 2*base[i].BytesSent {
			t.Errorf("rank %d second run did not accumulate: Msgs=%d BytesSent=%d", i, m.Msgs, m.BytesSent)
		}
		if m.Elapsed <= base[i].Elapsed {
			t.Errorf("rank %d: Elapsed did not accumulate", i)
		}
	}

	w.ResetMetrics()
	for i := 0; i < P; i++ {
		if *w.Metrics(i) != (rt.Metrics{}) {
			t.Errorf("rank %d: metrics not zeroed by ResetMetrics: %+v", i, *w.Metrics(i))
		}
	}
	w.Run(body)
	for i := 0; i < P; i++ {
		m := w.Metrics(i)
		if m.Msgs != base[i].Msgs || m.BytesSent != base[i].BytesSent || m.BytesRecv != base[i].BytesRecv {
			t.Errorf("rank %d post-reset run: Msgs=%d BytesSent=%d, want %d/%d",
				i, m.Msgs, m.BytesSent, base[i].Msgs, base[i].BytesSent)
		}
	}
}
