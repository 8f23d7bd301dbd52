// The chaos battery: every injected fault — crash, stall, graceful
// departure, delayed and duplicated frames — driven through the full
// collective stack on both fabrics, asserting the tentpole guarantee:
// failure is always a clean per-rank error naming the operation and the
// peers involved. Never a hang (the watchdogs prove it), never a process
// panic (the test binary surviving proves that).
package dist

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"gnbody/internal/rt"
	"gnbody/internal/transport"
)

const (
	chaosP        = 4
	chaosVictim   = 2
	chaosDeadline = 250 * time.Millisecond
)

// chaosFabric builds a P-endpoint fabric of the given kind with the victim
// endpoint wrapped in a FaultTransport executing plan.
func chaosFabric(t *testing.T, kind string, plan transport.FaultPlan) []transport.Transport {
	t.Helper()
	var fabric []transport.Transport
	if kind == "tcp" {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addr := ln.Addr().String()
		fabric = make([]transport.Transport, chaosP)
		ferrs := make([]error, chaosP)
		var wg sync.WaitGroup
		for i := 0; i < chaosP; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				cfg := transport.TCPConfig{Addr: addr, Timeout: 20 * time.Second}
				if i == 0 {
					cfg.Listener = ln
				}
				fabric[i], ferrs[i] = transport.Rendezvous(i, chaosP, cfg)
			}(i)
		}
		wg.Wait()
		for i, err := range ferrs {
			if err != nil {
				t.Fatalf("rendezvous rank %d: %v", i, err)
			}
		}
	} else {
		fabric = transport.NewLoopback(chaosP)
	}
	fabric[chaosVictim] = transport.NewFault(fabric[chaosVictim], plan)
	return fabric
}

// runChaos executes body on a world over the faulted fabric and returns
// World.Run's error. A hang past the watchdog is the one failure mode the
// battery exists to rule out, so it is fatal.
func runChaos(t *testing.T, kind string, plan transport.FaultPlan, body func(rt.Runtime)) error {
	t.Helper()
	w, err := NewWorldOver(chaosFabric(t, kind, plan), Config{ProgressDeadline: chaosDeadline})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- w.Run(body) }()
	select {
	case err := <-done:
		w.Close()
		return err
	case <-time.After(30 * time.Second):
		w.Close()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
		}
		t.Fatal("chaos run hung past the watchdog")
		return nil
	}
}

// chaosBSP is the bulk-synchronous path: rounds of alltoallv + allreduce +
// barrier, the superstep skeleton of the BSP driver.
func chaosBSP(r rt.Runtime) {
	for round := 0; round < 8; round++ {
		send := make([][]byte, chaosP)
		for dst := 0; dst < chaosP; dst++ {
			send[dst] = []byte{byte(r.Rank()), byte(dst), byte(round)}
		}
		r.Alltoallv(send)
		r.Allreduce(int64(r.Rank()), rt.OpSum)
		r.Barrier()
	}
}

// chaosAsync is the asynchronous RPC path: a serve handler, a stream of
// pull calls to the next rank, drained to zero — the async driver's shape.
func chaosAsync(r rt.Runtime) {
	r.Serve(func(req []byte) []byte { return append([]byte{byte(r.Rank())}, req...) })
	wait := r.SplitBarrier()
	wait()
	for round := 0; round < 64; round++ {
		r.AsyncCall((r.Rank()+1)%chaosP, []byte{byte(round)}, func([]byte) {})
		r.Drain(0)
	}
	r.Barrier()
}

// chaosAsyncBurst is the async driver's pull loop: bursts of calls to the
// next rank, queued on a fabric that queues, then drained.
func chaosAsyncBurst(r rt.Runtime) {
	r.Serve(func(req []byte) []byte { return append([]byte{byte(r.Rank())}, req...) })
	wait := r.SplitBarrier()
	wait()
	for round := 0; round < 16; round++ {
		for k := 0; k < 8; k++ {
			r.AsyncCall((r.Rank()+1)%chaosP, []byte{byte(round), byte(k)}, func([]byte) {})
		}
		r.Drain(0)
	}
	r.Barrier()
}

// chaosAllreducePull is a dynamic-termination pattern: work whittled down
// by pull RPCs between allreduce sweeps that decide whether anyone still
// has tasks.
func chaosAllreducePull(r rt.Runtime) {
	r.Serve(func(req []byte) []byte { return req })
	wait := r.SplitBarrier()
	wait()
	rem := 12
	for {
		if r.Allreduce(int64(rem), rt.OpSum) == 0 {
			break
		}
		if rem > 0 {
			r.AsyncCall((r.Rank()+rem)%chaosP, []byte{byte(rem)}, func([]byte) {})
			r.Drain(0)
			rem--
		}
	}
	r.Barrier()
}

// chaosBodies names the coordination paths the battery drives.
var chaosBodies = []struct {
	name string
	body func(rt.Runtime)
}{
	{"bsp", chaosBSP},
	{"async", chaosAsync},
	{"async-burst", chaosAsyncBurst},
	{"allreduce-pull", chaosAllreducePull},
}

// firstRankError digs the first *RankError out of a (possibly joined)
// World.Run error.
func firstRankError(t *testing.T, err error) *RankError {
	t.Helper()
	var re *RankError
	if !errors.As(err, &re) {
		t.Fatalf("no *RankError in: %v", err)
	}
	return re
}

// TestChaosPeerKilled kills the victim rank mid-collective (abrupt, no
// bye) on every fabric × coordination path. The job must fail with clean
// per-rank errors: the victim reports the injected fault; the survivors
// report either the broken link (TCP surfaces peer death) or a progress
// deadline (loopback crash is pure silence) — and every error names the
// operation it interrupted.
func TestChaosPeerKilled(t *testing.T) {
	for _, fabric := range []string{"loopback", "tcp"} {
		for _, tc := range chaosBodies {
			fabric, tc := fabric, tc
			t.Run(fabric+"/"+tc.name, func(t *testing.T) {
				t.Parallel()
				err := runChaos(t, fabric, transport.FaultPlan{
					Action: transport.FaultCrash, AfterSends: 8}, tc.body)
				if err == nil {
					t.Fatal("peer killed mid-collective but Run returned nil")
				}
				if !errors.Is(err, transport.ErrInjectedFault) {
					t.Errorf("victim's injected fault missing from: %v", err)
				}
				if fabric == "tcp" && !errors.Is(err, transport.ErrPeerLost) {
					t.Errorf("TCP survivors did not surface the lost peer: %v", err)
				}
				if fabric == "loopback" && !errors.Is(err, ErrProgressDeadline) {
					t.Errorf("loopback survivors did not hit the deadline: %v", err)
				}
				if re := firstRankError(t, err); re.Op == "" {
					t.Errorf("rank error does not name its operation: %v", re)
				}
			})
		}
	}
}

// TestChaosPeerStalled freezes the victim mid-collective with no
// observable error anywhere — the failure mode only the progress deadline
// can diagnose. Every blocked rank must fail with ErrProgressDeadline
// naming the collective and the peers it was owed traffic from.
func TestChaosPeerStalled(t *testing.T) {
	for _, fabric := range []string{"loopback", "tcp"} {
		for _, tc := range chaosBodies {
			fabric, tc := fabric, tc
			t.Run(fabric+"/"+tc.name, func(t *testing.T) {
				t.Parallel()
				err := runChaos(t, fabric, transport.FaultPlan{
					Action: transport.FaultStall, AfterSends: 8}, tc.body)
				if err == nil {
					t.Fatal("peer stalled mid-collective but Run returned nil")
				}
				if !errors.Is(err, ErrProgressDeadline) {
					t.Errorf("stall not diagnosed as a progress deadline: %v", err)
				}
				var de *DeadlineError
				if !errors.As(err, &de) {
					t.Fatalf("no *DeadlineError in: %v", err)
				}
				if de.Op == "" {
					t.Errorf("deadline error does not name the collective: %v", de)
				}
				if len(de.Waiting) == 0 {
					t.Errorf("deadline error does not name the missing peers: %v", de)
				}
			})
		}
	}
}

// TestChaosByeMidCollective pins the graceful-departure error path: a rank
// that says bye while still owed to a collective must surface on its peers
// as a typed per-rank error (a departed-peer send failure or a deadline
// whose diagnostics call the departure out) — and the victim's own clean
// exit stays clean.
func TestChaosByeMidCollective(t *testing.T) {
	fabric := chaosFabric(t, "tcp", transport.FaultPlan{})
	w, err := NewWorldOver(fabric, Config{ProgressDeadline: chaosDeadline})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		done <- w.Run(func(r rt.Runtime) {
			rk := r.(*Rank)
			if r.Rank() == chaosVictim {
				rk.Close() // bye while the others are mid-collective
				return
			}
			// Wait until the bye registers, then run a collective that owes
			// the departed rank traffic.
			for len(rk.tp.DepartedPeers()) == 0 {
				time.Sleep(time.Millisecond)
			}
			chaosBSP(r)
		})
	}()
	var runErr error
	select {
	case runErr = <-done:
	case <-time.After(30 * time.Second):
		w.Close()
		t.Fatal("bye-mid-collective run hung")
	}
	w.Close()
	if runErr == nil {
		t.Fatal("collective over a departed peer returned nil")
	}
	if !errors.Is(runErr, transport.ErrPeerDeparted) && !errors.Is(runErr, ErrProgressDeadline) {
		t.Errorf("departure surfaced as neither ErrPeerDeparted nor a deadline: %v", runErr)
	}
	re := firstRankError(t, runErr)
	if re.Rank == chaosVictim {
		t.Errorf("the cleanly-departed victim was blamed: %v", re)
	}
	if re.Op == "" {
		t.Errorf("rank error does not name its operation: %v", re)
	}
}

// TestChaosDelayDupBenign runs the full collective suite with every
// endpoint's inbound path perturbed — frames delayed by seeded amounts and
// periodically duplicated. The protocols must tolerate both: identical
// results, no errors, no hangs. (RPC traffic is excluded: response
// duplication is a protocol violation by design, not a tolerated fault.)
func TestChaosDelayDupBenign(t *testing.T) {
	fabric := transport.NewLoopback(chaosP)
	for i := range fabric {
		fabric[i] = transport.NewFault(fabric[i], transport.FaultPlan{
			Seed: int64(100 + i), DelayEvery: 3, DelayPolls: 6, DupEvery: 5})
	}
	w, err := NewWorldOver(fabric, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	errs := make(chan error, chaosP)
	runWorld(t, w, 60*time.Second, func(r rt.Runtime) {
		for round := 0; round < 10; round++ {
			send := make([][]byte, chaosP)
			for dst := 0; dst < chaosP; dst++ {
				m := make([]byte, 16)
				for i := range m {
					m[i] = cell(r.Rank(), dst, i)
				}
				send[dst] = m
			}
			recv := r.Alltoallv(send)
			for src := 0; src < chaosP; src++ {
				for i, b := range recv[src] {
					if b != cell(src, r.Rank(), i) {
						errs <- fmt.Errorf("rank %d round %d: corrupt recv[%d][%d] under delay/dup",
							r.Rank(), round, src, i)
						return
					}
				}
			}
			want := int64(chaosP * (chaosP + 1) / 2)
			if got := r.Allreduce(int64(r.Rank()+1), rt.OpSum); got != want {
				errs <- fmt.Errorf("rank %d round %d: allreduce = %d, want %d under delay/dup",
					r.Rank(), round, got, want)
				return
			}
			r.Barrier()
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
