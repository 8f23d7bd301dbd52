// The fault injector: a deterministic, seeded Transport wrapper that turns
// "what if a peer dies right here" from a thought experiment into a test
// case. A FaultTransport composes over any fabric — loopback or TCP — and
// executes a FaultPlan keyed to frame counts, so the same plan and seed
// reproduce the same failure bit-for-bit on every run:
//
//   - FaultCrash kills the endpoint after its Nth send, like a kill -9 of
//     the owning process: on TCP the sockets die abruptly (no bye) and
//     frames still queued in an outbox are lost, on loopback the rank
//     simply goes dark; either way every later Send and Recv on the
//     wrapped endpoint fails with ErrInjectedFault.
//   - FaultStall freezes the endpoint after its Nth send with no
//     observable error anywhere: its sends are swallowed, inbound frames
//     stop being delivered, and peers see pure silence — the failure mode
//     only a progress deadline can diagnose.
//   - DelayEvery/DupEvery perturb the inbound path without breaking it:
//     every kth delivered frame is held back for a seeded number of polls,
//     or delivered twice. Collective protocols must tolerate both.
//
// The chaos battery in package dist drives every one of these through the
// full collective stack and asserts clean, named errors — never hangs.

package transport

import (
	"errors"
	"fmt"
	"math/rand"
)

// ErrInjectedFault marks failures manufactured by a FaultTransport, so
// tests can tell an injected fault from a genuine one.
var ErrInjectedFault = errors.New("injected fault")

// FaultAction selects what happens when a FaultPlan's send trigger fires.
type FaultAction int

const (
	// FaultNone disables the send trigger (delay/dup rules still apply).
	FaultNone FaultAction = iota
	// FaultCrash aborts the endpoint (no goodbye) and fails all later calls.
	FaultCrash
	// FaultStall silences the endpoint: sends swallowed, receives frozen,
	// no errors raised on either side.
	FaultStall
)

// FaultPlan scripts a FaultTransport. The zero value injects nothing.
type FaultPlan struct {
	// Seed drives the delay-length jitter; the same seed yields the same
	// schedule. Zero is a valid seed.
	Seed int64

	// Action fires after this endpoint's AfterSends-th successful Send or
	// QueueV — a queued frame counts when it is queued. The Nth
	// frame is still accepted and the endpoint fails afterwards; a crash
	// drops it with the rest of the outboxes if it was queued, a stall
	// flushes them first. AfterSends <= 0 never triggers.
	Action     FaultAction
	AfterSends int

	// DelayEvery > 0 holds every DelayEvery-th inbound frame back for
	// 1..DelayPolls extra Recv polls (seeded); DelayPolls defaults to 8.
	DelayEvery int
	DelayPolls int

	// DupEvery > 0 delivers every DupEvery-th inbound frame twice.
	DupEvery int
}

// heldFrame is an inbound frame being delayed until the poll counter
// reaches release.
type heldFrame struct {
	it      loopItem
	release int
}

// FaultTransport wraps a Transport endpoint with a FaultPlan. Like every
// Transport, it is owned by a single rank goroutine; no locking needed.
type FaultTransport struct {
	inner Transport
	plan  FaultPlan
	rng   *rand.Rand

	sends int // successful Send and QueueV calls
	ins   int // frames popped from the wrapped endpoint
	polls int // Recv calls (the delay clock)

	crashed bool
	stalled bool

	held []heldFrame
	dups []loopItem
}

var _ Transport = (*FaultTransport)(nil)

// NewFault wraps ep with the given plan.
func NewFault(ep Transport, plan FaultPlan) *FaultTransport {
	if plan.DelayEvery > 0 && plan.DelayPolls <= 0 {
		plan.DelayPolls = 8
	}
	return &FaultTransport{inner: ep, plan: plan, rng: rand.New(rand.NewSource(plan.Seed))}
}

// Rank returns the wrapped endpoint's rank.
func (f *FaultTransport) Rank() int { return f.inner.Rank() }

// Size returns the wrapped fabric's rank count.
func (f *FaultTransport) Size() int { return f.inner.Size() }

// crashErr is what a crashed endpoint's calls fail with.
func (f *FaultTransport) crashErr() error {
	return fmt.Errorf("transport: rank %d: %w (crash after %d sends)",
		f.inner.Rank(), ErrInjectedFault, f.plan.AfterSends)
}

// trigger fires the planned action once the send budget is spent.
func (f *FaultTransport) trigger() {
	switch f.plan.Action {
	case FaultCrash:
		f.crashed = true
		// Die like a killed process: abrupt socket teardown on TCP, plain
		// silence on loopback, where peers notice only via their own
		// deadlines.
		f.inner.Abort()
	case FaultStall:
		// Everything sent so far still reaches the wire; from here on the
		// endpoint is silent, so a failed write has nobody to tell.
		_ = f.Flush()
		f.stalled = true
	}
}

// Send forwards the frame unless the endpoint has crashed (error) or
// stalled (silently swallowed).
func (f *FaultTransport) Send(dst int, frame []byte) error { return f.send(dst, frame, nil, false) }

// SendV forwards the frame hdr‖body under the same rules as Send.
func (f *FaultTransport) SendV(dst int, hdr, body []byte) error { return f.send(dst, hdr, body, false) }

// QueueV queues the frame on the wrapped endpoint under the same rules as
// Send.
func (f *FaultTransport) QueueV(dst int, hdr, body []byte) error { return f.send(dst, hdr, body, true) }

// send forwards one frame, queued when asked, and fires the planned action
// when the frame spends the send budget.
func (f *FaultTransport) send(dst int, hdr, body []byte, queue bool) error {
	if f.crashed {
		return f.crashErr()
	}
	if f.stalled {
		return nil // swallowed: the peer never sees it, we never error
	}
	var err error
	if queue {
		err = f.inner.QueueV(dst, hdr, body)
	} else {
		err = f.inner.SendV(dst, hdr, body)
	}
	if err != nil {
		return err
	}
	f.sends++
	if f.plan.Action != FaultNone && f.plan.AfterSends > 0 && f.sends == f.plan.AfterSends {
		f.trigger()
	}
	return nil
}

// Flush flushes the wrapped endpoint's outboxes, unless the endpoint has
// crashed (error) or stalled (nothing leaves it).
func (f *FaultTransport) Flush() error {
	if f.crashed {
		return f.crashErr()
	}
	if f.stalled {
		return nil
	}
	return f.inner.Flush()
}

// Recv pops the next frame, applying the inbound delay/dup rules. A
// crashed endpoint errors; a stalled one reports an eternally empty inbox.
func (f *FaultTransport) Recv() (int, []byte, bool, error) {
	if f.crashed {
		return 0, nil, false, f.crashErr()
	}
	if f.stalled {
		return 0, nil, false, nil
	}
	f.polls++
	// Ripe delayed frames deliver before new traffic (oldest first).
	for i, h := range f.held {
		if f.polls >= h.release {
			f.held = append(f.held[:i], f.held[i+1:]...)
			return h.it.from, h.it.frame, true, nil
		}
	}
	if len(f.dups) > 0 {
		it := f.dups[0]
		f.dups = f.dups[1:]
		return it.from, it.frame, true, nil
	}
	from, frame, ok, err := f.inner.Recv()
	if err != nil || !ok {
		return 0, nil, false, err
	}
	f.ins++
	if f.plan.DupEvery > 0 && f.ins%f.plan.DupEvery == 0 {
		cp := make([]byte, len(frame))
		copy(cp, frame)
		f.dups = append(f.dups, loopItem{from: from, frame: cp})
	}
	if f.plan.DelayEvery > 0 && f.ins%f.plan.DelayEvery == 0 {
		f.held = append(f.held, heldFrame{
			it:      loopItem{from: from, frame: frame},
			release: f.polls + 1 + f.rng.Intn(f.plan.DelayPolls),
		})
		return 0, nil, false, nil // withheld this poll
	}
	return from, frame, true, nil
}

// Ready is the wrapped endpoint's signal, except where the plan decides:
// a crashed endpoint always has an error to report, a held or duplicated
// frame is due within a few polls (the delay clock counts polls, not
// time), and a stalled endpoint never delivers again.
func (f *FaultTransport) Ready() <-chan struct{} {
	switch {
	case f.crashed || len(f.held) > 0 || len(f.dups) > 0:
		return closedReady
	case f.stalled:
		return nil
	}
	return f.inner.Ready()
}

// closedReady is a Ready channel that never blocks.
var closedReady = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

// Close tears down the wrapped endpoint (gracefully — an injected crash
// has already aborted it).
func (f *FaultTransport) Close() error { return f.inner.Close() }

// Abort kills the wrapped endpoint; a fired plan still decides the rest.
func (f *FaultTransport) Abort() { f.inner.Abort() }

// RecycleFrame hands a dead frame to the wrapped endpoint's pool. Every
// frame Recv returns is one the wrapped endpoint delivered once — a
// delayed frame is delivered only when released, and a duplicate is a
// copy of its own — so no recycled buffer is ever delivered again.
func (f *FaultTransport) RecycleFrame(frame []byte) { f.inner.RecycleFrame(frame) }

// DepartedPeers delegates to the wrapped endpoint.
func (f *FaultTransport) DepartedPeers() []int { return f.inner.DepartedPeers() }
