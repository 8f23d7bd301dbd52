package dist

import (
	"errors"
	"testing"
	"time"

	"gnbody/internal/rt"
	"gnbody/internal/transport"
)

// pollCounter counts its owner's Recv calls: every poll a waiting rank
// makes goes through one.
type pollCounter struct {
	transport.Transport
	polls int
}

func (c *pollCounter) Recv() (int, []byte, bool, error) {
	c.polls++
	return c.Transport.Recv()
}

// TestBlockedRankParks: a rank blocked in Barrier while its peer computes
// for 200 ms spends its spin budget and then parks on its inbox — a handful
// of polls past the budget, not one per sleep quantum until the peer turns
// up (a 20 µs nap polls about 50 times a millisecond on a fine-grained
// timer, once a millisecond on a coarse one; either way hundreds of polls
// here). With and without a progress deadline (the two ways park waits).
func TestBlockedRankParks(t *testing.T) {
	for _, pd := range []time.Duration{0, -1} {
		fabric := transport.NewLoopback(2)
		counter := &pollCounter{Transport: fabric[0]}
		fabric[0] = counter
		w, err := NewWorldOver(fabric, Config{ProgressDeadline: pd})
		if err != nil {
			t.Fatal(err)
		}
		runWorld(t, w, 30*time.Second, func(r rt.Runtime) {
			if r.Rank() == 1 {
				time.Sleep(200 * time.Millisecond)
			}
			r.Barrier()
		})
		w.Close()
		if counter.polls > spinPolls+76 {
			t.Errorf("deadline %v: rank 0 polled %d times while blocked for 200 ms, want at most %d",
				pd, counter.polls, spinPolls+76)
		}
	}
}

// parkedUntil runs body on w, in which rank 0 blocks in a barrier its peer
// never joins and the peer breaks rank 0's fabric once rank 0 has parked.
// It returns how long the run took and World.Run's error: rank 0 must be
// woken by the breakage, not by the 30 s progress deadline.
func parkedUntil(t *testing.T, w *World, breakIt func()) (time.Duration, error) {
	t.Helper()
	t0 := time.Now()
	err := w.Run(func(r rt.Runtime) {
		if r.Rank() == 0 {
			r.Barrier()
			return
		}
		time.Sleep(100 * time.Millisecond) // rank 0 spins out and parks
		breakIt()
	})
	return time.Since(t0), err
}

// TestParkedRankWakes: each way a transport can fail a parked rank — its
// loopback endpoint closed or aborted from outside, its TCP link to a peer
// lost — signals Ready, so the rank fails at once with the cause, long
// before the progress deadline would have diagnosed the silence.
func TestParkedRankWakes(t *testing.T) {
	for _, tc := range []struct {
		name   string
		fabric func() []transport.Transport
		brk    func(w *World)
		want   error
	}{
		{"loopback-close", func() []transport.Transport { return transport.NewLoopback(2) },
			func(w *World) { w.Rank(0).Close() }, transport.ErrClosed},
		{"loopback-abort", func() []transport.Transport { return transport.NewLoopback(2) },
			func(w *World) { w.Rank(0).Transport().Abort() }, transport.ErrClosed},
		{"tcp-link-loss", func() []transport.Transport { return tcpMesh(t, 2) },
			func(w *World) { w.Rank(1).Transport().Abort() }, transport.ErrPeerLost},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w, err := NewWorldOver(tc.fabric(), Config{ProgressDeadline: DefaultProgressDeadline})
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			took, err := parkedUntil(t, w, func() { tc.brk(w) })
			if re := firstRankError(t, err); re.Rank != 0 || !errors.Is(err, tc.want) {
				t.Errorf("Run returned %v, want rank 0 failing with %v", err, tc.want)
			}
			if took > 5*time.Second {
				t.Errorf("parked rank took %v to notice, want it woken at once", took)
			}
		})
	}
}

// TestParkedRankPollsOutDelayedFrame: a fault injector holding a delayed
// frame releases it only after more polls, so it must report ready while
// it holds one. Rank 0's inbound barrier token is delayed; rank 0, parked
// when the token lands, must keep polling until it ripens rather than
// park again until the deadline.
func TestParkedRankPollsOutDelayedFrame(t *testing.T) {
	fabric := transport.NewLoopback(2)
	fabric[0] = transport.NewFault(fabric[0], transport.FaultPlan{DelayEvery: 1, DelayPolls: 8})
	w, err := NewWorldOver(fabric, Config{ProgressDeadline: DefaultProgressDeadline})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	t0 := time.Now()
	if err := w.Run(func(r rt.Runtime) {
		if r.Rank() == 1 {
			time.Sleep(100 * time.Millisecond) // rank 0 spins out and parks
		}
		r.Barrier()
	}); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(t0); took > 5*time.Second {
		t.Errorf("barrier over a delayed frame took %v, want the frame polled out at once", took)
	}
}
