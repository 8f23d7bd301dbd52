package serve

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"gnbody/internal/dist"
)

// Admission-control outcomes; the HTTP layer maps them onto status codes
// (413 / 503+Retry-After / 429 / 503).
var (
	// ErrTooLarge: the job alone exceeds the admission budget and would
	// never fit; resubmitting unchanged is pointless.
	ErrTooLarge = errors.New("serve: job exceeds admission budget")
	// ErrOverloaded: admitted work currently holds the budget; retry later.
	ErrOverloaded = errors.New("serve: admission budget exhausted")
	// ErrQueueFull: too many jobs queued; retry later.
	ErrQueueFull = errors.New("serve: job queue full")
	// ErrDraining: the server is shutting down and admits nothing new.
	ErrDraining = errors.New("serve: server draining")
)

// PoolConfig parameterises the resident-world pool.
type PoolConfig struct {
	Backend   string // "par" or "dist"
	Ranks     int    // ranks per world
	Worlds    int    // resident worlds (= concurrent jobs)
	MemBudget int64  // per-rank exchange budget, forwarded to the backend

	// AdmitBudget bounds the wire bytes of all admitted (queued + running)
	// read sets — the rt-style memory accounting turned into an admission
	// signal. <= 0 means unlimited.
	AdmitBudget int64
	// MaxQueue bounds queued (not yet running) jobs. <= 0 means 64.
	MaxQueue int
	// MaxRetries is how many times a job lost to a rank failure is
	// rescheduled onto a rebuilt world before failing for good.
	MaxRetries int
	// ProgressDeadline for dist worlds; 0 disables (serve default), so set
	// it whenever chaos is on or peers could genuinely stall.
	ProgressDeadline time.Duration
	// Chaos allows jobs to arm the kill hook (dist backend only).
	Chaos bool

	Logf func(format string, args ...any) // nil silences pool logging
}

func (c PoolConfig) withDefaults() PoolConfig {
	if c.Backend == "" {
		c.Backend = "par"
	}
	if c.Ranks <= 0 {
		c.Ranks = 4
	}
	if c.Worlds <= 0 {
		c.Worlds = 1
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 64
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// Pool schedules admitted jobs onto a fixed set of resident worlds. Each
// world is owned by one worker goroutine; jobs on a world run serially,
// concurrency comes from multiple worlds, and batching comes from workers
// preferring queued jobs whose spec matches the job they just ran — a warm
// world takes a compatible batch back-to-back.
type Pool struct {
	cfg PoolConfig

	mu           sync.Mutex
	cond         *sync.Cond
	queue        []*Job
	queuedBytes  int64
	runningBytes int64
	running      int
	draining     bool
	rebuilds     int64
	completed    int64
	failed       int64
	retried      int64

	wg      sync.WaitGroup
	engines []*engine
}

// NewPool builds the resident worlds and starts their workers. Expensive:
// world construction happens here, once, not per job — that is the
// service's reason to exist.
func NewPool(cfg PoolConfig) (*Pool, error) {
	cfg = cfg.withDefaults()
	if cfg.Chaos && cfg.Backend != "dist" {
		return nil, fmt.Errorf("serve: chaos needs the dist backend (got %q)", cfg.Backend)
	}
	p := &Pool{cfg: cfg}
	p.cond = sync.NewCond(&p.mu)
	for i := 0; i < cfg.Worlds; i++ {
		e, err := newEngine(cfg.Backend, cfg.Ranks, cfg.MemBudget, cfg.ProgressDeadline)
		if err != nil {
			for _, prev := range p.engines {
				prev.close()
			}
			return nil, err
		}
		p.engines = append(p.engines, e)
	}
	for _, e := range p.engines {
		p.wg.Add(1)
		go p.worker(e)
	}
	return p, nil
}

// Ranks returns the per-world rank count (for request validation).
func (p *Pool) Ranks() int { return p.cfg.Ranks }

// Chaos reports whether jobs may arm the kill hook.
func (p *Pool) Chaos() bool { return p.cfg.Chaos }

// Submit admits a job or rejects it with a typed admission error.
func (p *Pool) Submit(j *Job) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.draining {
		return ErrDraining
	}
	if p.cfg.AdmitBudget > 0 {
		if j.estBytes > p.cfg.AdmitBudget {
			return fmt.Errorf("%w: job %s needs %d bytes of %d", ErrTooLarge, j.ID, j.estBytes, p.cfg.AdmitBudget)
		}
		if p.queuedBytes+p.runningBytes+j.estBytes > p.cfg.AdmitBudget {
			return fmt.Errorf("%w: %d bytes admitted, job %s needs %d more",
				ErrOverloaded, p.queuedBytes+p.runningBytes, j.ID, j.estBytes)
		}
	}
	if len(p.queue) >= p.cfg.MaxQueue {
		return fmt.Errorf("%w: %d jobs queued", ErrQueueFull, len(p.queue))
	}
	p.queue = append(p.queue, j)
	p.queuedBytes += j.estBytes
	p.cond.Signal()
	return nil
}

// next blocks for the next job, preferring one whose spec equals last
// (request batching: equal specs share the warm world back-to-back). The
// zero spec, which fails Validate, matches no job. Returns nil when the
// pool is draining and the queue is empty.
func (p *Pool) next(last JobSpec) *Job {
	p.mu.Lock()
	defer p.mu.Unlock()
	for len(p.queue) == 0 && !p.draining {
		p.cond.Wait()
	}
	if len(p.queue) == 0 {
		return nil
	}
	pick := 0
	for i, j := range p.queue {
		if j.Spec == last {
			pick = i
			break
		}
	}
	j := p.queue[pick]
	p.queue = append(p.queue[:pick], p.queue[pick+1:]...)
	p.queuedBytes -= j.estBytes
	p.runningBytes += j.estBytes
	p.running++
	return j
}

// release returns a finished job's admission bytes.
func (p *Pool) release(j *Job, failed bool) {
	p.mu.Lock()
	p.runningBytes -= j.estBytes
	p.running--
	if failed {
		p.failed++
	} else {
		p.completed++
	}
	p.mu.Unlock()
}

// worker owns one resident world for the pool's lifetime.
func (p *Pool) worker(e *engine) {
	defer p.wg.Done()
	defer e.close()
	var last JobSpec
	for {
		j := p.next(last)
		if j == nil {
			return
		}
		last = j.Spec
		p.runOne(e, j)
	}
}

// runOne executes a job with the retry policy: a typed rank failure
// (*dist.RankError, including progress-deadline losses) poisons the world,
// so the worker rebuilds it and — while retries remain — reruns the job
// inline on the fresh world. Any other error is a permanent job failure.
// The chaos kill arms only the first attempt, so a retried victim
// completes.
func (p *Pool) runOne(e *engine, j *Job) {
	j.setRunning(time.Now())
	kill := -1
	if p.cfg.Chaos && j.chaosKill >= 0 {
		kill = j.chaosKill
	}
	for {
		hits, tasks, rows, err := e.run(j, kill)
		kill = -1
		if err == nil {
			j.complete(hits, tasks, rows, time.Now())
			p.release(j, false)
			return
		}
		var re *dist.RankError
		if !errors.As(err, &re) {
			j.fail(err, "pipeline", time.Now())
			p.release(j, true)
			return
		}
		kind := "RankError"
		if errors.Is(err, dist.ErrProgressDeadline) {
			kind = "DeadlineError"
		}
		// The failed world is sticky-poisoned either way; rebuild before
		// this worker touches another job.
		if rerr := e.rebuild(); rerr != nil {
			j.fail(errors.Join(err, rerr), kind, time.Now())
			p.release(j, true)
			return
		}
		p.mu.Lock()
		p.rebuilds++
		p.mu.Unlock()
		if j.Retries() >= p.cfg.MaxRetries {
			p.cfg.Logf("serve: job %s failed (%s, %d retries exhausted): %v", j.ID, kind, j.Retries(), err)
			j.fail(err, kind, time.Now())
			p.release(j, true)
			return
		}
		j.bumpRetry()
		p.mu.Lock()
		p.retried++
		p.mu.Unlock()
		p.cfg.Logf("serve: job %s lost rank %d (%s); retrying on a rebuilt world", j.ID, re.Rank, kind)
	}
}

// PoolStats is a point-in-time snapshot of the scheduler.
type PoolStats struct {
	Queued       int   `json:"queued"`
	Running      int   `json:"running"`
	QueuedBytes  int64 `json:"queued_bytes"`
	RunningBytes int64 `json:"running_bytes"`
	AdmitBudget  int64 `json:"admit_budget"`
	Worlds       int   `json:"worlds"`
	Ranks        int   `json:"ranks"`
	Completed    int64 `json:"completed"`
	Failed       int64 `json:"failed"`
	Retried      int64 `json:"retried"`
	Rebuilds     int64 `json:"rebuilds"`
	Draining     bool  `json:"draining"`
}

// Stats snapshots the scheduler counters.
func (p *Pool) Stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return PoolStats{
		Queued: len(p.queue), Running: p.running,
		QueuedBytes: p.queuedBytes, RunningBytes: p.runningBytes,
		AdmitBudget: p.cfg.AdmitBudget,
		Worlds:      len(p.engines), Ranks: p.cfg.Ranks,
		Completed: p.completed, Failed: p.failed,
		Retried: p.retried, Rebuilds: p.rebuilds,
		Draining: p.draining,
	}
}

// Drain stops admission, fails every still-queued job with ErrDraining,
// lets in-flight jobs finish (or fail through the normal retry policy),
// and blocks until every worker has exited and closed its world.
// Idempotent.
func (p *Pool) Drain() {
	p.mu.Lock()
	if !p.draining {
		p.draining = true
		for _, j := range p.queue {
			j.fail(ErrDraining, "draining", time.Now())
			p.queuedBytes -= j.estBytes
			p.failed++
		}
		p.queue = nil
	}
	p.cond.Broadcast()
	p.mu.Unlock()
	p.wg.Wait()
}
