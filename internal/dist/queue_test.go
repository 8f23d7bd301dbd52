package dist

import (
	"errors"
	"testing"
	"time"

	"gnbody/internal/rt"
	"gnbody/internal/transport"
)

// queueSpy sits between a rank and its TCP endpoint and tracks which peers
// have a frame queued and not yet written: a QueueV marks its peer, a Send
// or SendV to that peer (which writes the outbox ahead of its frame) clears
// it, a Flush clears them all. It counts the times the rank parked (asked
// for Ready), closed or aborted with a peer still marked.
type queueSpy struct {
	transport.Transport
	queued  []bool
	total   int // frames queued
	parked  int // parks with a frame queued
	atClose int // peers with a frame queued when Close ran
	atAbort int // peers with a frame queued when Abort ran
}

func newQueueSpy(tp transport.Transport) *queueSpy {
	return &queueSpy{Transport: tp, queued: make([]bool, tp.Size())}
}

func (s *queueSpy) pending() int {
	n := 0
	for _, q := range s.queued {
		if q {
			n++
		}
	}
	return n
}

func (s *queueSpy) QueueV(dst int, hdr, body []byte) error {
	err := s.Transport.QueueV(dst, hdr, body)
	if err == nil && dst != s.Rank() {
		s.queued[dst] = true
		s.total++
	}
	return err
}

func (s *queueSpy) Flush() error {
	clear(s.queued)
	return s.Transport.Flush()
}

func (s *queueSpy) Send(dst int, frame []byte) error {
	s.queued[dst] = false
	return s.Transport.Send(dst, frame)
}

func (s *queueSpy) SendV(dst int, hdr, body []byte) error {
	s.queued[dst] = false
	return s.Transport.SendV(dst, hdr, body)
}

func (s *queueSpy) Ready() <-chan struct{} {
	if s.pending() > 0 {
		s.parked++
	}
	return s.Transport.Ready()
}

func (s *queueSpy) Close() error {
	s.atClose = s.pending()
	return s.Transport.Close()
}

func (s *queueSpy) Abort() {
	s.atAbort = s.pending()
	s.Transport.Abort()
}

// TestNothingStaysQueued: on a 2-rank TCP world under a 300 ms progress
// deadline, whose body queues four pulls to the peer and ends in Drain, in
// Barrier or by returning, no rank parks, leaves a Drain (even one with
// nothing to wait for), returns from Run or says bye with a frame still
// queued, and every pull is answered — in the same Run for
// Drain, in the next one otherwise. Rank 0 pulls once rank 1 is past the
// barrier, and rank 1 computes for 50 ms before it pulls, so rank 0 spends
// its spin budget and parks waiting on it, and neither rank can leave its
// Drain before it has seen the other's pulls.
func TestNothingStaysQueued(t *testing.T) {
	for _, ending := range []string{"drain", "barrier", "return"} {
		t.Run(ending, func(t *testing.T) {
			fabric := tcpMesh(t, 2)
			spies := make([]*queueSpy, 2)
			for i, tp := range fabric {
				spies[i] = newQueueSpy(tp)
				fabric[i] = spies[i]
			}
			w, err := NewWorldOver(fabric, Config{ProgressDeadline: 300 * time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			var answered, early [2]int
			left := make(chan struct{}) // rank 1 is past the barrier: it cannot answer a pull in there
			runWorld(t, w, 30*time.Second, func(r rt.Runtime) {
				r.Serve(func(req []byte) []byte { return append(req, byte(r.Rank())) })
				r.Barrier()
				if r.Rank() == 1 {
					close(left)
					time.Sleep(50 * time.Millisecond)
				} else {
					<-left
				}
				for i := 0; i < 4; i++ {
					r.AsyncCall(1-r.Rank(), make([]byte, 100*i), func([]byte) { answered[r.Rank()]++ })
				}
				r.Drain(4) // returns at once, with the pulls on the wire
				early[r.Rank()] = spies[r.Rank()].pending()
				switch ending {
				case "drain":
					r.Drain(0)
				case "barrier":
					r.Barrier()
				}
			})
			for i, s := range spies {
				if s.total == 0 || early[i] > 0 || s.pending() > 0 || s.parked > 0 {
					t.Errorf("rank %d: %d frames queued; %d peers still queued after a Drain that did not wait, %d after Run; %d parks with a frame queued",
						i, s.total, early[i], s.pending(), s.parked)
				}
			}
			runWorld(t, w, 30*time.Second, func(r rt.Runtime) {
				r.Drain(0)
				r.Barrier() // keep serving until the peer's pulls are answered too
			})
			if answered != [2]int{4, 4} {
				t.Errorf("answered pulls %v, want 4 on each rank", answered)
			}
			w.Close()
			for i, s := range spies {
				if s.atClose > 0 || s.parked > 0 {
					t.Errorf("rank %d: said bye with %d peers queued, parked %d times with a frame queued", i, s.atClose, s.parked)
				}
			}
		})
	}
}

// TestChaosCrashWithFramesQueued kills the TCP victim mid-async-pass while
// its outbox holds pulls it queued and never wrote — lost with the process,
// as under kill -9. Every rank must end in a typed *RankError: the victim's
// names the injected fault, and each survivor's the lost link, not a
// progress deadline and never a hang.
func TestChaosCrashWithFramesQueued(t *testing.T) {
	fabric := tcpMesh(t, chaosP)
	spy := newQueueSpy(fabric[chaosVictim])
	fabric[chaosVictim] = transport.NewFault(spy, transport.FaultPlan{Action: transport.FaultCrash, AfterSends: 8})
	w, err := NewWorldOver(fabric, Config{ProgressDeadline: chaosDeadline})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- w.Run(chaosAsyncBurst) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		w.Close()
		t.Fatal("crash with frames queued hung past the watchdog")
	}
	w.Close()
	if spy.atAbort == 0 {
		t.Fatalf("the victim crashed with nothing queued (%d frames queued in all)", spy.total)
	}
	for rk := 0; rk < chaosP; rk++ {
		var re *RankError
		err := w.Rank(rk).Err()
		switch {
		case !errors.As(err, &re) || re.Op == "":
			t.Errorf("rank %d: %v, want a *RankError naming its operation", rk, err)
		case rk == chaosVictim && !errors.Is(err, transport.ErrInjectedFault):
			t.Errorf("victim: %v, want the injected fault", err)
		case rk != chaosVictim && (!errors.Is(err, transport.ErrPeerLost) || errors.Is(err, ErrProgressDeadline)):
			t.Errorf("survivor %d: %v, want the lost link", rk, err)
		}
	}
}
