// The distributed backend's failure model (DESIGN.md §11): a transport
// fault or a progress-deadline expiry is a per-rank error, never a process
// crash and never a hang.
//
// rt.Runtime's collective signatures carry no error returns — the same
// interface runs over the simulator (sim), where peer loss cannot happen —
// so the distributed rank propagates failure by unwinding: the first fault
// inside any primitive records a RankError and unwinds the SPMD body with a
// typed panic that Rank.Run recovers into its error return. User code never
// observes a half-failed collective (no zero-value results to mis-compute
// with), driver loops conditioned on collective results cannot spin on
// garbage, and the process stays alive to report per-rank diagnostics.
// Foreign panics are re-raised untouched.
package dist

import (
	"errors"
	"fmt"
	"time"

	"gnbody/internal/rt"
)

// ErrProgressDeadline marks a rank that sat blocked in a collective with
// no inbound frame for longer than the configured progress deadline — the
// signature of a stalled or silently dead peer. Match with errors.Is.
var ErrProgressDeadline = errors.New("dist: progress deadline exceeded")

// RankError is the failure Rank.Run returns: which rank failed, inside
// which runtime operation, and why. Unwrap exposes the cause, so
// errors.Is(err, transport.ErrPeerLost) and friends see through it.
type RankError struct {
	Rank int    // the failing rank
	Op   string // the runtime operation that failed ("barrier", "alltoallv", ...)
	Err  error  // underlying cause
}

func (e *RankError) Error() string {
	if e.Op == "" {
		return fmt.Sprintf("dist: rank %d: %v", e.Rank, e.Err)
	}
	return fmt.Sprintf("dist: rank %d: %s: %v", e.Rank, e.Op, e.Err)
}

func (e *RankError) Unwrap() error { return e.Err }

// DeadlineError is the cause of a progress-deadline failure: the named
// collective, how long the rank starved, and which peers it was waiting on
// (with gracefully-departed ones called out — a peer that said bye while
// still owed to a collective is the likeliest culprit).
type DeadlineError struct {
	Op       string
	Stalled  time.Duration
	Waiting  []int // peers the blocked primitive still expects traffic from
	Departed []int // peers that gracefully departed, per the transport
}

func (e *DeadlineError) Error() string {
	msg := fmt.Sprintf("no inbound frame for %s while blocked in %s (waiting on rank(s) %v",
		e.Stalled.Round(time.Millisecond), e.Op, e.Waiting)
	if len(e.Departed) > 0 {
		msg += fmt.Sprintf("; departed: %v", e.Departed)
	}
	return msg + "): " + ErrProgressDeadline.Error()
}

func (e *DeadlineError) Unwrap() error { return ErrProgressDeadline }

// failure is the internal unwinding token raised by the primitives and
// recovered by Rank.Run. It never escapes the package.
type failure struct{ err *RankError }

// raise records this rank's first failure and unwinds the SPMD body back
// to Run. Later raises keep the original error (the first fault is the
// diagnosis; everything after it is fallout).
func (r *Rank) raise(op string, err error) {
	if r.failErr == nil {
		r.failErr = &RankError{Rank: r.id, Op: op, Err: err}
	}
	panic(failure{r.failErr})
}

// protect runs the rank body, converting a raised failure into the error
// return and passing every other panic through.
func (r *Rank) protect(f func(rt.Runtime)) (err error) {
	defer func() {
		p := recover()
		if p == nil {
			return
		}
		if fl, ok := p.(failure); ok {
			err = fl.err
			return
		}
		panic(p)
	}()
	f(r)
	return nil
}
