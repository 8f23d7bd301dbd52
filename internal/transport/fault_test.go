package transport

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"
)

// TestFaultCrashLoopback pins the injected-crash contract on the loopback
// fabric: the trigger frame still goes out, every later Send and Recv on
// the crashed endpoint fails with ErrInjectedFault, and the peer — with no
// liveness signal on loopback — sees plain silence, not an error.
func TestFaultCrashLoopback(t *testing.T) {
	eps := NewLoopback(2)
	f := NewFault(eps[0], FaultPlan{Action: FaultCrash, AfterSends: 2})
	if err := f.Send(1, []byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := f.Send(1, []byte("b")); err != nil {
		t.Fatal(err) // the Nth frame itself is delivered
	}
	if err := f.Send(1, []byte("c")); !errors.Is(err, ErrInjectedFault) {
		t.Fatalf("post-crash Send err = %v, want ErrInjectedFault", err)
	}
	if _, _, _, err := f.Recv(); !errors.Is(err, ErrInjectedFault) {
		t.Fatalf("post-crash Recv err = %v, want ErrInjectedFault", err)
	}
	// The peer got both pre-crash frames and then silence without error.
	for _, want := range []string{"a", "b"} {
		_, frame := drainOne(t, eps[1], time.Second)
		if string(frame) != want {
			t.Fatalf("peer got %q, want %q", frame, want)
		}
	}
	if _, _, ok, err := eps[1].Recv(); ok || err != nil {
		t.Fatalf("peer of loopback-crashed rank: ok=%v err=%v, want silence", ok, err)
	}
}

// TestFaultCrashTCP pins the abrupt-death path: an injected crash on a TCP
// endpoint aborts the sockets with no bye, so the surviving peer's Recv
// surfaces ErrPeerLost naming the dead rank — exactly like a kill -9.
func TestFaultCrashTCP(t *testing.T) {
	eps := tcpFabric(t, 2)
	f := NewFault(eps[1], FaultPlan{Action: FaultCrash, AfterSends: 1})
	if err := f.Send(0, []byte("last")); err != nil {
		t.Fatal(err)
	}
	_, frame := drainOne(t, eps[0], 5*time.Second)
	if string(frame) != "last" {
		t.Fatalf("survivor got %q, want the pre-crash frame", frame)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, _, ok, err := eps[0].Recv()
		if err != nil {
			if !errors.Is(err, ErrPeerLost) {
				t.Fatalf("survivor err = %v, want ErrPeerLost", err)
			}
			if got := PeerOf(err); got != 1 {
				t.Fatalf("survivor PeerOf = %d, want 1", got)
			}
			return
		}
		if ok {
			t.Fatal("unexpected frame after crash")
		}
		if time.Now().After(deadline) {
			t.Fatal("TCP crash never surfaced on the survivor")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFaultQueuedFrames: over TCP a queued frame counts toward AfterSends
// when it is queued. A crash drops what is still queued, as a kill -9 of
// the process holding the outbox would: the survivor gets the flushed frame,
// then the lost link. A stall first flushes everything accepted before it,
// then goes silent.
func TestFaultQueuedFrames(t *testing.T) {
	for _, tc := range []struct {
		action FaultAction
		want   []string
	}{
		{FaultCrash, []string{"flushed"}},
		{FaultStall, []string{"flushed", "queued", "last"}},
	} {
		eps := tcpFabric(t, 2)
		f := NewFault(eps[1], FaultPlan{Action: tc.action, AfterSends: 3})
		for i, name := range []string{"flushed", "queued", "last"} {
			if err := f.QueueV(0, []byte(name), nil); err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				if err := f.Flush(); err != nil {
					t.Fatal(err)
				}
			}
		}
		err := f.Flush()
		if got := collectOrder(t, eps[0], len(tc.want)); fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Errorf("action %d: survivor got %q, want %q", tc.action, got, tc.want)
		}
		if tc.action == FaultStall {
			if err != nil || f.QueueV(0, []byte("swallowed"), nil) != nil {
				t.Errorf("stalled endpoint reported an error: %v", err)
			}
			continue
		}
		if !errors.Is(err, ErrInjectedFault) || !errors.Is(f.QueueV(0, nil, nil), ErrInjectedFault) {
			t.Errorf("crashed endpoint's Flush and QueueV: %v, want the injected fault", err)
		}
		for {
			_, _, ok, err := eps[0].Recv()
			if ok {
				t.Fatal("a dropped frame arrived after the crash")
			}
			if err != nil {
				if !errors.Is(err, ErrPeerLost) || PeerOf(err) != 1 {
					t.Fatalf("survivor err = %v, want ErrPeerLost from rank 1", err)
				}
				break
			}
			<-eps[0].Ready()
		}
	}
}

// TestFaultStall pins the silent-stall contract: after the trigger, sends
// are swallowed without error and Recv reports an eternally empty inbox —
// neither side of any link sees a failure.
func TestFaultStall(t *testing.T) {
	eps := NewLoopback(2)
	f := NewFault(eps[0], FaultPlan{Action: FaultStall, AfterSends: 1})
	if err := f.Send(1, []byte("pre")); err != nil {
		t.Fatal(err)
	}
	if err := f.Send(1, []byte("swallowed")); err != nil {
		t.Fatalf("stalled Send errored: %v", err)
	}
	if _, _, ok, err := f.Recv(); ok || err != nil {
		t.Fatalf("stalled Recv: ok=%v err=%v, want frozen silence", ok, err)
	}
	_, frame := drainOne(t, eps[1], time.Second)
	if string(frame) != "pre" {
		t.Fatalf("peer got %q, want only the pre-stall frame", frame)
	}
	if _, _, ok, _ := eps[1].Recv(); ok {
		t.Fatal("swallowed frame was delivered")
	}
}

// collectOrder drains n frames from ep, polling, and returns the payloads
// in delivery order.
func collectOrder(t *testing.T, ep Transport, n int) []string {
	t.Helper()
	var out []string
	deadline := time.Now().Add(5 * time.Second)
	for len(out) < n {
		from, frame, ok, err := ep.Recv()
		if err != nil {
			t.Fatalf("Recv: %v", err)
		}
		if ok {
			if from != 1 {
				t.Fatalf("frame from %d, want 1", from)
			}
			out = append(out, string(frame))
			continue
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d frames delivered", len(out), n)
		}
	}
	return out
}

// TestFaultDelayDeterministic pins two properties of the delay rule: no
// frame is lost (delivery is a permutation), and the same seed reproduces
// the same delivery order bit-for-bit.
func TestFaultDelayDeterministic(t *testing.T) {
	const n = 24
	run := func(seed int64) []string {
		eps := NewLoopback(2)
		f := NewFault(eps[0], FaultPlan{Seed: seed, DelayEvery: 3, DelayPolls: 5})
		for i := 0; i < n; i++ {
			if err := eps[1].Send(0, []byte(fmt.Sprintf("m%02d", i))); err != nil {
				t.Fatal(err)
			}
		}
		return collectOrder(t, f, n)
	}
	a, b := run(42), run(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d: %q vs %q", i, a[i], b[i])
		}
	}
	seen := make(map[string]bool, n)
	for _, m := range a {
		if seen[m] {
			t.Fatalf("frame %q delivered twice under delay-only plan", m)
		}
		seen[m] = true
	}
	if len(seen) != n {
		t.Fatalf("delivered %d distinct frames, want %d", len(seen), n)
	}
}

// TestFaultDup pins the duplication rule: every DupEvery-th inbound frame
// arrives exactly twice, the rest exactly once.
func TestFaultDup(t *testing.T) {
	const n = 9
	eps := NewLoopback(2)
	f := NewFault(eps[0], FaultPlan{DupEvery: 3})
	for i := 0; i < n; i++ {
		if err := eps[1].Send(0, []byte(fmt.Sprintf("m%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	counts := map[string]int{}
	for _, m := range collectOrder(t, f, n+n/3) {
		counts[m]++
	}
	for i := 0; i < n; i++ {
		key, want := fmt.Sprintf("m%d", i), 1
		if (i+1)%3 == 0 {
			want = 2
		}
		if counts[key] != want {
			t.Errorf("frame %s delivered %d times, want %d", key, counts[key], want)
		}
	}
}

// poisonOnRecycle overwrites every frame handed back to it before the
// frame returns to the pool: a buffer delivered again after it was
// recycled arrives as 0xDB bytes, not the ones that were sent.
type poisonOnRecycle struct{ Transport }

func (p poisonOnRecycle) RecycleFrame(frame []byte) {
	for i := range frame {
		frame[i] = 0xDB
	}
	p.Transport.RecycleFrame(frame)
}

// TestFaultRecycling: the fault injector forwards RecycleFrame because it
// never delivers a buffer twice — a duplicate is a copy of its own, and a
// delayed frame is delivered once, when released. With every second frame
// duplicated and every third delayed, a receiver that recycles each frame
// the moment it has checked it still gets every frame intact, the
// duplicates and the delayed frames arriving after earlier deliveries were
// poisoned and their buffers drawn again by later sends.
func TestFaultRecycling(t *testing.T) {
	eps := NewLoopback(2)
	f := NewFault(poisonOnRecycle{eps[0]}, FaultPlan{Seed: 3, DupEvery: 2, DelayEvery: 3})
	const rounds, perRound = 20, 5
	counts := map[string]int{}
	sent, delivered := 0, 0
	for round := 0; round < rounds; round++ {
		for k := 0; k < perRound; k++ {
			if err := eps[1].Send(0, []byte(fmt.Sprintf("frame %03d", sent))); err != nil {
				t.Fatal(err)
			}
			sent++
		}
		for ; delivered < sent+sent/2; delivered++ {
			_, frame := drainOne(t, f, 10*time.Second)
			var i int
			if _, err := fmt.Sscanf(string(frame), "frame %03d", &i); err != nil || i >= sent {
				t.Fatalf("round %d: delivery %d is %q, not a frame that was sent", round, delivered, frame)
			}
			counts[string(frame)]++
			f.RecycleFrame(frame)
		}
	}
	for i := 0; i < sent; i++ {
		key, want := fmt.Sprintf("frame %03d", i), 1
		if (i+1)%2 == 0 {
			want = 2
		}
		if counts[key] != want {
			t.Errorf("%s delivered %d times, want %d", key, counts[key], want)
		}
	}
}

// TestTCPSendAfterBye pins the departed-peer semantics: once a peer says
// bye, sending to it fails with ErrPeerDeparted naming the rank — and the
// fabric is NOT poisoned: links to the remaining peers keep working.
func TestTCPSendAfterBye(t *testing.T) {
	eps := tcpFabric(t, 3)
	eps[2].Close()
	// The bye is asynchronous; wait for rank 0 to notice the departure.
	deadline := time.Now().Add(10 * time.Second)
	for len(eps[0].DepartedPeers()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("bye never registered")
		}
		time.Sleep(time.Millisecond)
	}
	err := eps[0].Send(2, []byte("too late"))
	if !errors.Is(err, ErrPeerDeparted) {
		t.Fatalf("send to departed peer: err = %v, want ErrPeerDeparted", err)
	}
	if got := PeerOf(err); got != 2 {
		t.Fatalf("PeerOf = %d, want 2", got)
	}
	if got := eps[0].DepartedPeers(); len(got) != 1 || got[0] != 2 {
		t.Fatalf("DepartedPeers = %v, want [2]", got)
	}
	// The surviving link must be untouched by the departed-peer error.
	if err := eps[0].Send(1, []byte("still here")); err != nil {
		t.Fatalf("send to surviving peer failed: %v", err)
	}
	_, frame := drainOne(t, eps[1], 5*time.Second)
	if string(frame) != "still here" {
		t.Fatalf("survivor got %q", frame)
	}
}

// TestDialRetryNamesAddr pins the dial-timeout diagnostics: the error
// names the unreachable address and the last underlying failure, and the
// retry loop returns promptly at the deadline instead of oversleeping.
func TestDialRetryNamesAddr(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close() // dials will be refused
	t0 := time.Now()
	_, err = dialRetry(addr, time.Now().Add(300*time.Millisecond))
	elapsed := time.Since(t0)
	if err == nil {
		t.Fatal("dialRetry against dead address succeeded")
	}
	if !strings.Contains(err.Error(), addr) {
		t.Errorf("timeout error does not name the address: %v", err)
	}
	if !strings.Contains(err.Error(), "refused") && !strings.Contains(err.Error(), "timeout") {
		t.Errorf("timeout error does not carry the last dial failure: %v", err)
	}
	if elapsed > 2*time.Second {
		t.Errorf("dialRetry overslept its deadline: took %s", elapsed)
	}
}
