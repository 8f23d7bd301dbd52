package core

import (
	"testing"
	"time"

	"gnbody/internal/dist"
	"gnbody/internal/rt"
	"gnbody/internal/seq"
)

// BenchmarkAsyncPullTCP isolates the asynchronous driver's completion path
// (request, service, response, callback) over real sockets: a 2-rank TCP
// world runs RunAsync under NoopExecutor over reads of 10 kb, every task
// remote, so one op is one pass and nearly all of it is pulls. It reports
// the pass's wall time per pull and the socket writes per pull, counted by
// the TCP endpoints.
func BenchmarkAsyncPullTCP(b *testing.B) {
	const p = 2
	reads, lens, pt, byRank := crossWorkload(b, 400, 10_000, p)
	fabric := confTCPFabric(b, p)
	writes := func() (n int64) {
		for _, tp := range fabric {
			n += tp.(interface{ Writes() int64 }).Writes()
		}
		return n
	}
	world, err := dist.NewWorldOver(fabric, dist.Config{})
	if err != nil {
		b.Fatal(err)
	}
	defer world.Close()
	stores := make([]seq.Store, p)
	for rk := range stores {
		lo, hi := pt.Range(rk)
		if stores[rk], err = seq.NewSliceStore(lo, reads.Reads[lo:hi], lens); err != nil {
			b.Fatal(err)
		}
	}
	var pulls [p]int
	var errs [p]error
	pass := func() {
		if err := world.Run(func(r rt.Runtime) {
			st := stores[r.Rank()]
			in := &Input{Part: pt, Lens: lens, Tasks: byRank[r.Rank()], Codec: RealCodec{Store: st}, Store: st}
			var res *Result
			if res, errs[r.Rank()] = RunAsync(r, in, Config{Exec: NoopExecutor{}}); res != nil {
				pulls[r.Rank()] = res.WireFetches
			}
		}); err != nil {
			b.Fatal(err)
		}
		for rk, err := range errs {
			if err != nil {
				b.Fatalf("rank %d: %v", rk, err)
			}
		}
	}
	pass() // warm the frame pools and the outboxes, as a resident world is
	w0 := writes()
	var elapsed time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		pass()
		elapsed += time.Since(t0)
	}
	b.StopTimer()
	n := float64(b.N * (pulls[0] + pulls[1]))
	b.ReportMetric(float64(elapsed.Nanoseconds())/n, "ns/pull")
	b.ReportMetric(float64(writes()-w0)/n, "writes/pull")
}
