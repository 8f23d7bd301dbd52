package serve

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"gnbody/internal/dist"
	"gnbody/internal/rt"
	"gnbody/internal/transport"
)

func e2eSpec(mode string) JobSpec {
	s := JobSpec{K: e2eK, X: e2eX, MinScore: e2eMinScore, LoFreq: e2eLo, HiFreq: e2eHi, Mode: mode}
	if err := s.Validate(); err != nil {
		panic(err)
	}
	return s
}

func waitJob(t *testing.T, j *Job, timeout time.Duration) Status {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(timeout):
		t.Fatalf("job %s: not terminal after %s (state %s)", j.ID, timeout, j.Status().State)
	}
	return j.Status()
}

// TestChaosKillRetried is the serve-side fault story: a job whose victim
// rank is chaos-killed mid-run is rescheduled onto a rebuilt world and
// still returns the batch-identical hit set, with the retry visible in
// its status.
func TestChaosKillRetried(t *testing.T) {
	p, err := NewPool(PoolConfig{
		Backend: "dist", Ranks: 3, Worlds: 1, Chaos: true,
		ProgressDeadline: 500 * time.Millisecond, MaxRetries: 2, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Drain()

	reads := testReadsScaled(t, 5, 250)
	want := refTSV(t, reads)
	j := newJob("victim", e2eSpec("bsp"), reads, time.Now())
	j.chaosKill = 1
	if err := p.Submit(j); err != nil {
		t.Fatal(err)
	}
	st := waitJob(t, j, 120*time.Second)
	if st.State != StateDone {
		t.Fatalf("job: state %s (error %q), want done", st.State, st.Error)
	}
	if st.Retries < 1 {
		t.Fatalf("job completed with %d retries; the chaos kill never bit", st.Retries)
	}
	hits, _ := j.Hits()
	var b strings.Builder
	for _, h := range hits {
		fmt.Fprintf(&b, "%s\t%s\t%d\n", j.ReadName(h.A), j.ReadName(h.B), h.Score)
	}
	if b.String() != want {
		t.Errorf("retried job: hits differ from the batch reference (%d vs %d bytes)", b.Len(), len(want))
	}
	if ps := p.Stats(); ps.Rebuilds < 1 || ps.Retried < 1 {
		t.Errorf("stats: rebuilds=%d retried=%d, want >= 1 each", ps.Rebuilds, ps.Retried)
	}
}

// TestChaosKillExhausted pins the permanent-failure side: with no retries
// allowed the job fails with a typed rank error NAMING the victim, and the
// pool — having rebuilt the poisoned world — still completes a healthy
// follow-up job.
func TestChaosKillExhausted(t *testing.T) {
	p, err := NewPool(PoolConfig{
		Backend: "dist", Ranks: 3, Worlds: 1, Chaos: true,
		ProgressDeadline: 500 * time.Millisecond, MaxRetries: 0, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Drain()

	reads := testReadsScaled(t, 6, 250)
	j := newJob("victim", e2eSpec("bsp"), reads, time.Now())
	j.chaosKill = 1
	if err := p.Submit(j); err != nil {
		t.Fatal(err)
	}
	st := waitJob(t, j, 120*time.Second)
	if st.State != StateFailed {
		t.Fatalf("job: state %s, want failed", st.State)
	}
	if st.ErrorKind != "RankError" && st.ErrorKind != "DeadlineError" {
		t.Errorf("error kind %q, want RankError or DeadlineError", st.ErrorKind)
	}
	if !strings.Contains(st.Error, "rank 1") {
		t.Errorf("failure %q does not name the killed rank 1", st.Error)
	}
	j.mu.Lock()
	jerr := j.err
	j.mu.Unlock()
	var re *dist.RankError
	if !errors.As(jerr, &re) {
		t.Errorf("job error %v is not a *dist.RankError", jerr)
	}

	healthy := newJob("healthy", e2eSpec("bsp"), testReadsScaled(t, 7, 250), time.Now())
	if err := p.Submit(healthy); err != nil {
		t.Fatal(err)
	}
	if st := waitJob(t, healthy, 120*time.Second); st.State != StateDone {
		t.Fatalf("healthy follow-up job: state %s (error %q); world not rebuilt?", st.State, st.Error)
	}
}

// TestKillWakesParkedRank: the kill switch can be thrown from any
// goroutine while its rank is parked on an empty inbox, and the rank must
// fail at once with the kill, not wait out the progress deadline.
func TestKillWakesParkedRank(t *testing.T) {
	e, err := newEngine("dist", 2, 0, dist.DefaultProgressDeadline)
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	t0 := time.Now()
	err = e.w.Run(func(r rt.Runtime) {
		if r.Rank() == 0 {
			r.Barrier()
			return
		}
		time.Sleep(100 * time.Millisecond) // rank 0 spins out and parks
		e.kill(0)
	})
	var re *dist.RankError
	if !errors.As(err, &re) || re.Rank != 0 || !errors.Is(err, transport.ErrClosed) {
		t.Errorf("Run returned %v, want rank 0 failing with the chaos kill", err)
	}
	if took := time.Since(t0); took > 5*time.Second {
		t.Errorf("killed rank took %v to notice, want it woken at once", took)
	}
}

// TestAdmissionControl unit-tests the budget arithmetic without workers:
// per-job size gate, aggregate budget, queue cap, and draining.
func TestAdmissionControl(t *testing.T) {
	mk := func(seed int64) *Job { return newJob("j", e2eSpec("bsp"), testReadsScaled(t, seed, 50), time.Now()) }
	j1, j2 := mk(8), mk(9)

	p := &Pool{cfg: PoolConfig{AdmitBudget: j1.estBytes + j2.estBytes/2, MaxQueue: 1}.withDefaults()}
	p.cond = sync.NewCond(&p.mu)

	huge := newJob("huge", e2eSpec("bsp"), testReadsScaled(t, 8, 50), time.Now())
	huge.estBytes = p.cfg.AdmitBudget + 1
	if err := p.Submit(huge); !errors.Is(err, ErrTooLarge) {
		t.Errorf("oversized job: %v, want ErrTooLarge", err)
	}
	if err := p.Submit(j1); err != nil {
		t.Fatalf("first job rejected: %v", err)
	}
	if err := p.Submit(j2); !errors.Is(err, ErrOverloaded) {
		t.Errorf("over-budget job: %v, want ErrOverloaded", err)
	}
	tiny := mk(10)
	tiny.estBytes = 1
	if err := p.Submit(tiny); !errors.Is(err, ErrQueueFull) {
		t.Errorf("queue-capped job: %v, want ErrQueueFull", err)
	}

	p.mu.Lock()
	p.draining = true
	p.mu.Unlock()
	small := mk(11)
	small.estBytes = 1
	if err := p.Submit(small); !errors.Is(err, ErrDraining) {
		t.Errorf("draining submit: %v, want ErrDraining", err)
	}
}

// TestBatchPreference pins the warm-world batching rule: next() picks the
// queued job matching the worker's last spec over an older mismatched one.
func TestBatchPreference(t *testing.T) {
	p := &Pool{cfg: PoolConfig{}.withDefaults()}
	p.cond = sync.NewCond(&p.mu)
	other := newJob("other", e2eSpec("async"), testReadsScaled(t, 12, 50), time.Now())
	match := newJob("match", e2eSpec("bsp"), testReadsScaled(t, 13, 50), time.Now())
	if err := p.Submit(other); err != nil {
		t.Fatal(err)
	}
	if err := p.Submit(match); err != nil {
		t.Fatal(err)
	}
	if got := p.next(e2eSpec("bsp")); got.ID != "match" {
		t.Errorf("next with warm bsp world picked %s, want the spec-compatible job", got.ID)
	}
	if got := p.next(JobSpec{}); got.ID != "other" {
		t.Errorf("next then drained %s, want the remaining job", got.ID)
	}
}
