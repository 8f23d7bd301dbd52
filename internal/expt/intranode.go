package expt

import (
	"fmt"
	"time"

	"gnbody/internal/align"
	"gnbody/internal/core"
	"gnbody/internal/par"
	"gnbody/internal/stats"
	"gnbody/internal/workload"
)

// Intranode runs the full real pipeline (synthetic genome → reads → k-mer
// filter → candidates) and strong-scales both drivers with wall-clock
// timing on the real runtime, 1..MaxCores ranks by powers of 2 (§4.1:
// "both codes scale perfectly by powers of 2 from 1 to 32 cores" on Cori
// KNL; here, on the host machine).
func Intranode(p Params) (Result, error) {
	p = p.defaults()
	reads, tasks, _, err := workload.Pipeline(workload.EColi30x, p.IntraScale, p.Seed)
	if err != nil {
		return Result{}, err
	}
	lens := workload.LensOf(reads)
	cfg := core.Config{Exec: core.RealExecutor{Scoring: align.DefaultScoring(), X: 15}, MinScore: 100}

	t := &stats.Table{
		Title:   fmt.Sprintf("Intranode strong scaling (real runtime, E. coli 30x ÷ %d, wall clock)", p.IntraScale),
		Headers: []string{"mode", "cores", "elapsed", "speedup", "hits"},
	}
	for _, mode := range paperModes {
		var base time.Duration
		for c := 1; c <= p.MaxCores; c *= 2 {
			pt, byRank, err := ownerTasks(lens, tasks, c)
			if err != nil {
				return Result{}, err
			}
			world, err := par.NewWorld(par.Config{P: c})
			if err != nil {
				return Result{}, err
			}
			t0 := time.Now()
			results, err := alignPass(world, mode, len(byRank), scopedInputs(pt, lens, byRank, reads), cfg)
			elapsed := time.Since(t0)
			world.Close()
			if err != nil {
				return Result{}, fmt.Errorf("%s cores=%d: %w", mode, c, err)
			}
			hits := 0
			for _, res := range results {
				hits += len(res.Hits)
			}
			if c == 1 {
				base = elapsed
			}
			t.AddRow(string(mode), fmt.Sprint(c), stats.FmtDur(elapsed),
				fmt.Sprintf("%.2fx", float64(base)/float64(elapsed)), fmt.Sprint(hits))
		}
	}
	return Result{Tables: []*stats.Table{t}}, nil
}
