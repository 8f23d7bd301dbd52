package expt

import (
	"fmt"
	"time"

	"gnbody/internal/serve"
	"gnbody/internal/stats"
	"gnbody/internal/workload"
)

// serveRanks is the rank count of the serve experiment's resident world.
const serveRanks = 4

// Serve measures what the resident, multi-tenant pool buys over one-shot
// batch execution: the cold phase builds a fresh pool (world construction,
// executor binding, workspace allocation) for every job, the warm phase
// runs the same jobs back-to-back through ONE resident pool, where equal
// specs batch onto a warm world and per-rank workspaces are reused. The
// hit counts must agree — amortization is not allowed to change answers.
func Serve(p Params) (Result, error) {
	p = p.defaults()
	spec := serve.JobSpec{K: 15, X: 15, MinScore: 100, LoFreq: 2, HiFreq: 60, Mode: "bsp"}
	cfg := serve.PoolConfig{Backend: "par", Ranks: serveRanks, Worlds: 1}

	jobs := func(tag string) ([]*serve.Job, error) {
		out := make([]*serve.Job, p.ServeJobs)
		for i := range out {
			reads, _, _, err := workload.Pipeline(workload.EColi30x, p.ServeScale, p.Seed+int64(i))
			if err != nil {
				return nil, err
			}
			out[i], err = serve.NewJob(fmt.Sprintf("%s-%d", tag, i), spec, reads)
			if err != nil {
				return nil, err
			}
		}
		return out, nil
	}
	run := func(pool *serve.Pool, js []*serve.Job) error {
		for _, j := range js {
			if err := pool.Submit(j); err != nil {
				return err
			}
		}
		for _, j := range js {
			<-j.Done()
			if st := j.Status(); st.State != serve.StateDone {
				return fmt.Errorf("expt: job %s failed: %s", st.ID, st.Error)
			}
		}
		return nil
	}
	hitsOf := func(js []*serve.Job) int {
		var n int
		for _, j := range js {
			hits, _ := j.Hits()
			n += len(hits)
		}
		return n
	}

	// Cold: a fresh pool per job — every job pays world construction and
	// workspace allocation, the one-shot batch cost model.
	cold, err := jobs("cold")
	if err != nil {
		return Result{}, err
	}
	t0 := time.Now()
	for _, j := range cold {
		pool, err := serve.NewPool(cfg)
		if err != nil {
			return Result{}, err
		}
		if err := run(pool, []*serve.Job{j}); err != nil {
			pool.Drain()
			return Result{}, err
		}
		pool.Drain()
	}
	coldElapsed, coldHits := time.Since(t0), hitsOf(cold)

	// Warm: one resident pool takes the same jobs back-to-back; equal
	// specs batch onto the warm world.
	warm, err := jobs("warm")
	if err != nil {
		return Result{}, err
	}
	pool, err := serve.NewPool(cfg)
	if err != nil {
		return Result{}, err
	}
	t0 = time.Now()
	runErr := run(pool, warm)
	warmElapsed, warmHits := time.Since(t0), hitsOf(warm)
	pool.Drain()
	if runErr != nil {
		return Result{}, runErr
	}
	if coldHits != warmHits {
		return Result{}, fmt.Errorf("expt: warm pool found %d hits, cold %d — amortization changed answers",
			warmHits, coldHits)
	}

	t := &stats.Table{
		Title: fmt.Sprintf("Resident pool amortization (E. coli 30x ÷ %d, %d jobs, %d ranks, wall clock)",
			p.ServeScale, p.ServeJobs, serveRanks),
		Headers: []string{"phase", "jobs", "ranks", "elapsed", "per-job", "hits"},
	}
	for _, ph := range []struct {
		name    string
		elapsed time.Duration
		hits    int
	}{{"cold", coldElapsed, coldHits}, {"warm", warmElapsed, warmHits}} {
		t.AddRow(ph.name, fmt.Sprint(p.ServeJobs), fmt.Sprint(serveRanks), stats.FmtDur(ph.elapsed),
			stats.FmtDur(ph.elapsed/time.Duration(p.ServeJobs)), fmt.Sprint(ph.hits))
	}
	return Result{Tables: []*stats.Table{t}}, nil
}
