package pipeline

import (
	"testing"

	"gnbody/internal/par"
	"gnbody/internal/rt"
	"gnbody/internal/workload"
)

func BenchmarkDistributedStages(b *testing.B) {
	reads, _, _, err := workload.Pipeline(workload.EColi30x, 400, 1)
	if err != nil {
		b.Fatal(err)
	}
	lens := workload.LensOf(reads)
	const p = 4
	pt := sizePartition(b, lens, p)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		world, err := par.NewWorld(par.Config{P: p})
		if err != nil {
			b.Fatal(err)
		}
		var total int64
		outs := make([]*Output, p)
		world.Run(func(r rt.Runtime) {
			out, err := (&Plan{Part: pt, Lens: lens, K: 15, Lo: 2, Hi: 60}).Run(r, scopeRank(r, pt, reads, lens))
			if err != nil {
				b.Error(err)
				return
			}
			outs[r.Rank()] = out
		})
		for _, out := range outs {
			total += int64(len(out.Tasks))
		}
		b.ReportMetric(float64(total), "tasks")
	}
}
