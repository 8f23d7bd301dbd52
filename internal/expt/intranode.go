package expt

import (
	"fmt"
	"runtime"
	"time"

	"gnbody/internal/align"
	"gnbody/internal/core"
	"gnbody/internal/par"
	"gnbody/internal/stats"
	"gnbody/internal/workload"
)

// IntranodeRow is one point of the real (wall-clock) intranode strong
// scaling experiment (§4.1: "both codes scale perfectly by powers of 2
// from 1 to 32 cores" on Cori KNL; here, on the host machine).
type IntranodeRow struct {
	Cores   int
	Mode    Mode
	Elapsed time.Duration
	Speedup float64
	Hits    int
}

// IntranodeParams sizes the real-pipeline workload.
type IntranodeParams struct {
	Scale       int // E. coli 30x ÷ scale through the full real pipeline
	MaxCores    int // highest rank count (default: host CPUs)
	Seed        int64
	CacheBudget int64 // per-rank remote-read cache bytes (0 off, <0 unbounded)
}

// Intranode runs the full real pipeline (synthetic genome → reads → k-mer
// filter → candidates) and strong-scales both drivers with wall-clock
// timing on the real runtime, 1..MaxCores ranks.
func Intranode(p IntranodeParams) (*stats.Table, []IntranodeRow, error) {
	if p.Scale <= 0 {
		p.Scale = 150
	}
	if p.MaxCores <= 0 {
		p.MaxCores = runtime.NumCPU()
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	reads, tasks, _, err := workload.Pipeline(workload.EColi30x, p.Scale, p.Seed)
	if err != nil {
		return nil, nil, err
	}
	lens := workload.LensOf(reads)
	cfg := core.Config{Exec: core.RealExecutor{Scoring: align.DefaultScoring(), X: 15},
		MinScore: 100, CacheBudget: p.CacheBudget}

	var cores []int
	for c := 1; c <= p.MaxCores; c *= 2 {
		cores = append(cores, c)
	}
	var rows []IntranodeRow
	base := map[Mode]time.Duration{}
	for _, mode := range []Mode{BSP, Async} {
		for _, c := range cores {
			pt, byRank, err := ownerTasks(lens, tasks, c)
			if err != nil {
				return nil, nil, err
			}
			world, err := par.NewWorld(par.Config{P: c})
			if err != nil {
				return nil, nil, err
			}
			t0 := time.Now()
			results, err := alignPass(world, mode, len(byRank), scopedInputs(pt, lens, byRank, reads), cfg)
			if err != nil {
				return nil, nil, fmt.Errorf("%s cores=%d: %w", mode, c, err)
			}
			elapsed := time.Since(t0)
			hits := 0
			for _, res := range results {
				hits += len(res.Hits)
			}
			if c == 1 {
				base[mode] = elapsed
			}
			rows = append(rows, IntranodeRow{Cores: c, Mode: mode, Elapsed: elapsed,
				Speedup: float64(base[mode]) / float64(elapsed), Hits: hits})
		}
	}
	t := &stats.Table{
		Title:   fmt.Sprintf("Intranode strong scaling (real runtime, E. coli 30x ÷ %d, wall clock)", p.Scale),
		Headers: []string{"mode", "cores", "elapsed", "speedup", "hits"},
	}
	for _, r := range rows {
		t.AddRow(string(r.Mode), fmt.Sprint(r.Cores), stats.FmtDur(r.Elapsed),
			fmt.Sprintf("%.2fx", r.Speedup), fmt.Sprint(r.Hits))
	}
	return t, rows, nil
}
