package pipeline

import (
	"testing"

	"gnbody/internal/par"
	"gnbody/internal/rt"
	"gnbody/internal/workload"
)

// BenchmarkDistributedStages runs discover on four in-process ranks and
// reports, besides tasks, the bytes its frames put on the wire a run, the
// share of k-mer instances whose occurrence record crosses after the census
// and the time a k-mer instance costs (world set-up excluded).
func BenchmarkDistributedStages(b *testing.B) {
	reads, _, _, err := workload.Pipeline(workload.EColi30x, 400, 1)
	if err != nil {
		b.Fatal(err)
	}
	lens := workload.LensOf(reads)
	const p = 4
	pt := sizePartition(b, lens, p)
	var wire, kmers, kept int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		world, err := par.NewWorld(par.Config{P: p})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
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
		for rk, out := range outs {
			total += int64(len(out.Tasks))
			kmers += out.KmersExtracted
			kept += out.OccsKept
			m := world.Metrics(rk)
			wire += m.IntraBytes + m.InterBytes
		}
		b.ReportMetric(float64(total), "tasks")
	}
	b.ReportMetric(float64(wire)/float64(b.N), "wire-B/op")
	b.ReportMetric(float64(kept)/float64(kmers), "kept/inst")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(kmers), "ns/kmer")
}
