package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"gnbody/internal/core"
	"gnbody/internal/dist"
	"gnbody/internal/kmer"
	"gnbody/internal/overlap"
	"gnbody/internal/par"
	"gnbody/internal/partition"
	"gnbody/internal/pipeline"
	"gnbody/internal/rt"
	"gnbody/internal/seq"
	"gnbody/internal/serve"
	"gnbody/internal/sim"
	"gnbody/internal/transport"
	"gnbody/internal/workload"
)

// Probes: the layers no stage span reaches, each timed from here through
// the package's exported functions only. They run after the timed phase of
// a traced run, on an otherwise idle process.

// timeN runs f n times — fewer once a second has gone by — and returns the
// seconds each call took.
func timeN(n int, f func()) []float64 {
	var out []float64
	start := time.Now()
	for i := 0; i < n && (i == 0 || time.Since(start) < time.Second); i++ {
		t0 := time.Now()
		f()
		out = append(out, time.Since(t0).Seconds())
	}
	return out
}

// rate reports bytes over the median of secs as MB/s, with its base.
func (e *env) rate(name string, bytes int64, secs []float64) {
	med := median(secs)
	e.set(name, float64(bytes)/1e6/med)
	fmt.Fprintf(e.report, "  %-28s %12.6g MB/s     (%d bytes in a median %.6g s, n %d)\n",
		name, e.values[name], bytes, med, len(secs))
}

// probeReads times the input path and the discovery building blocks on the
// workload's own reads. discovery is false for a workload whose task graph
// is synthetic: serial candidate generation has nothing to find there.
func probeReads(e *env, fasta string, reads *seq.ReadSet, spec pipeline.Spec, discovery bool) error {
	fi, err := os.Stat(fasta)
	if err != nil {
		return err
	}
	var loadErr error
	e.rate("seq.fasta_load_mbps", fi.Size(), timeN(3, func() {
		if _, _, err := loadStores(fasta, spec); err != nil {
			loadErr = err
		}
	}))
	if loadErr != nil {
		return loadErr
	}
	lens := workload.LensOf(reads)
	e.timing("pipeline.plan_s", "s", timeN(5, func() {
		if _, err := pipeline.NewPlan(lens, ranks, spec); err != nil {
			loadErr = err
		}
	}))
	var windows int
	e.rate("kmer.scan_mbps", reads.TotalBases(), timeN(3, func() {
		for i := range reads.Reads {
			if err := kmer.Scan(&reads.Reads[i], spec.K, func(int, kmer.Code, bool) { windows++ }); err != nil {
				loadErr = err
			}
		}
	}))
	if discovery {
		e.timing("overlap.candidates_s", "s", timeN(3, func() {
			if _, _, _, err := overlap.FromReadSet(reads, overlap.Config{
				K: spec.K, Lo: spec.Lo, Hi: spec.Hi, Coverage: spec.Coverage, ErrRate: spec.ErrRate}); err != nil {
				loadErr = err
			}
		}))
	}
	return loadErr
}

// probeLayers runs the workload-independent probes: the read wire codec,
// the two fabrics, and the collectives and RPC of both runtimes.
func probeLayers(e *env) error {
	// seq: 200 reads of 10 kb through the wire codec.
	rs := seq.NewReadSet(nil)
	rng := stream(0, 7)
	for i := 0; i < 200; i++ {
		s := make(seq.Seq, 10_000)
		for j := range s {
			s[j] = seq.Base(rng.Intn(4))
		}
		rs.Reads = append(rs.Reads, seq.Read{ID: seq.ReadID(i), Seq: s})
	}
	var wire []byte
	e.rate("seq.wire_encode_mbps", rs.TotalBases(), timeN(5, func() {
		wire = wire[:0]
		for i := range rs.Reads {
			wire = seq.AppendWire(wire, &rs.Reads[i])
		}
	}))
	var decErr error
	var dbuf seq.Seq
	e.rate("seq.wire_decode_mbps", rs.TotalBases(), timeN(5, func() {
		for buf := wire; len(buf) > 0; {
			r, n, err := seq.DecodeWireInto(dbuf, buf)
			if err != nil {
				decErr = err
				return
			}
			dbuf, buf = r.Seq, buf[n:]
		}
	}))
	if decErr != nil {
		return decErr
	}

	// transport: ping-pong and stream over sockets, ping-pong over the
	// in-memory loopback.
	tcp, err := tcpFabric(ranks)
	if err != nil {
		return err
	}
	rtt, err := pingPong(tcp, 1, 200, 20)
	if err != nil {
		return err
	}
	e.timing("transport.tcp_rtt_us", "us", rtt)
	const frame, frames = 64 << 10, 400
	stream, err := pingPongStream(tcp, frame, frames, 5)
	if err != nil {
		return err
	}
	e.rate("transport.tcp_stream_mbps", frame*frames, stream)
	for _, tp := range tcp {
		tp.Close()
	}
	lb := transport.NewLoopback(ranks)
	rtt, err = pingPong(lb, 1, 200, 20)
	if err != nil {
		return err
	}
	e.timing("transport.loopback_rtt_us", "us", rtt)
	for _, tp := range lb {
		tp.Close()
	}

	// dist over sockets, then par, through the same rt.Runtime calls.
	dw, err := tcpWorld()
	if err != nil {
		return err
	}
	defer dw.Close()
	if err := probeRuntime(e, "dist", dw); err != nil {
		return err
	}
	pw, err := par.NewWorld(par.Config{P: ranks})
	if err != nil {
		return err
	}
	return probeRuntime(e, "par", pw)
}

// recvFrame polls an endpoint until a frame arrives, yielding between polls
// the way the runtimes' wait loops do, so the fabric's reader goroutines get
// a processor.
func recvFrame(tp transport.Transport) error {
	for {
		_, _, ok, err := tp.Recv()
		if err != nil || ok {
			return err
		}
		runtime.Gosched()
	}
}

// pingPong bounces a size-byte frame between endpoints 0 and 1 and returns
// the round-trip time in microseconds, one sample per batch.
func pingPong(fabric []transport.Transport, size, perBatch, batches int) ([]float64, error) {
	total := perBatch * batches
	echoErr := make(chan error, 1)
	go func() {
		msg := make([]byte, size)
		for i := 0; i < total; i++ {
			if err := recvFrame(fabric[1]); err != nil {
				echoErr <- err
				return
			}
			if err := fabric[1].Send(0, msg); err != nil {
				echoErr <- err
				return
			}
		}
		echoErr <- nil
	}()
	msg := make([]byte, size)
	var firstErr error
	out := timeN(batches, func() {
		for i := 0; i < perBatch && firstErr == nil; i++ {
			if firstErr = fabric[0].Send(1, msg); firstErr == nil {
				firstErr = recvFrame(fabric[0])
			}
		}
	})
	if firstErr != nil {
		return nil, firstErr // the echo side ends when the caller closes the fabric
	}
	if err := <-echoErr; err != nil {
		return nil, err
	}
	for i := range out {
		out[i] = out[i] / float64(perBatch) * 1e6
	}
	return out, nil
}

// pingPongStream sends frames frames of size bytes from endpoint 0 to 1
// and waits for a one-byte acknowledgement; one sample (seconds) per round.
func pingPongStream(fabric []transport.Transport, size, frames, rounds int) ([]float64, error) {
	sinkErr := make(chan error, 1)
	go func() {
		for i := 0; i < rounds; i++ {
			for f := 0; f < frames; f++ {
				if err := recvFrame(fabric[1]); err != nil {
					sinkErr <- err
					return
				}
			}
			if err := fabric[1].Send(0, []byte{1}); err != nil {
				sinkErr <- err
				return
			}
		}
		sinkErr <- nil
	}()
	msg := make([]byte, size)
	var firstErr error
	out := timeN(rounds, func() {
		for f := 0; f < frames && firstErr == nil; f++ {
			firstErr = fabric[0].Send(1, msg)
		}
		if firstErr == nil {
			firstErr = recvFrame(fabric[0])
		}
	})
	if firstErr != nil {
		return nil, firstErr
	}
	return out, <-sinkErr
}

// probeRuntime times a backend's collectives and RPC: alltoallv with 1 MB
// rows, allreduce, barrier, and a one-at-a-time RPC round trip. Rank 0's
// clock is the sample; name is "dist" or "par".
func probeRuntime(e *env, name string, w world) error {
	const a2aIters, smallIters, rpcIters = 10, 500, 500
	var a2a, red, bar, rpc []float64
	err := w.Run(func(r rt.Runtime) {
		row := make([]byte, 1<<20)
		send := make([][]byte, r.Size())
		for i := range send {
			send[i] = row
		}
		sample := func(dst *[]float64, iters int, scale float64, f func()) {
			for b := 0; b < 5; b++ {
				r.Barrier()
				t0 := time.Now()
				for i := 0; i < iters; i++ {
					f()
				}
				if r.Rank() == 0 {
					*dst = append(*dst, time.Since(t0).Seconds()/float64(iters)*scale)
				}
			}
		}
		sample(&a2a, a2aIters, 1e3, func() { r.Alltoallv(send) })
		sample(&red, smallIters, 1e6, func() { r.Allreduce(1, rt.OpSum) })
		sample(&bar, smallIters, 1e6, func() { r.Barrier() })
		ack := []byte{1}
		r.Serve(func([]byte) []byte { return ack })
		r.Barrier() // handlers registered everywhere before anyone calls in
		if r.Rank() == 0 {
			req := make([]byte, 8)
			for b := 0; b < 5; b++ {
				t0 := time.Now()
				for i := 0; i < rpcIters; i++ {
					r.AsyncCall(1, req, func([]byte) {})
					r.Drain(0)
				}
				rpc = append(rpc, time.Since(t0).Seconds()/rpcIters*1e6)
			}
		}
		r.Barrier() // the callee keeps serving until the caller is done
	})
	if err != nil {
		return err
	}
	e.timing(name+".alltoallv_ms", "ms", a2a)
	e.timing(name+".rpc_rtt_us", "us", rpc)
	if name == "dist" {
		e.timing("dist.allreduce_us", "us", red)
		e.timing("dist.barrier_us", "us", bar)
	}
	return nil
}

// probeExchangeGraph runs the probes that need a task graph, on
// exchange-tcp's: the bounded read cache on the resident 2-rank world, the
// placement planner, the count-only 8-rank tier split, and the simulator's
// prediction of the BSP pass.
func probeExchangeGraph(e *env, wl *workload.Workload, b *batch) error {
	// core: two async passes under a caller-owned bounded cache per rank;
	// the second pass finds what the first one retained.
	byRank := partition.AssignTasks(wl.Tasks, b.plan.Part)
	var remoteBytes int64
	for _, pt := range partition.TrafficMatrix(byRank, b.plan.Part, wl.Lens) {
		remoteBytes += pt.Bytes
	}
	budget := remoteBytes / ranks / 2 // half of what a rank pulls
	caches := make([]*core.ReadCache, ranks)
	for i := range caches {
		caches[i] = core.NewReadCache(budget)
	}
	var second [ranks]*core.Result
	errs := make([]error, ranks)
	for pass := 0; pass < 2; pass++ {
		if err := b.w.Run(func(r rt.Runtime) {
			rk := r.Rank()
			in := &core.Input{Part: b.plan.Part, Lens: b.plan.Lens, Tasks: byRank[rk],
				Codec: core.RealCodec{Store: b.stores[rk]}, Store: b.stores[rk]}
			second[rk], errs[rk] = core.RunAsync(r, in, core.Config{Exec: newChecksumExecutor(b.stores[rk]), MinScore: 1, Cache: caches[rk]})
		}); err != nil {
			return err
		}
		for rk, err := range errs {
			if err != nil {
				return fmt.Errorf("cache probe rank %d: %w", rk, err)
			}
		}
	}
	var hits, fetches int
	for _, res := range second {
		hits += res.CacheHits
		fetches += res.WireFetches
	}
	e.set("core.cache_hit_ratio", float64(hits)/float64(hits+fetches))
	e.set("core.cache_wire_fetches", float64(fetches))
	fmt.Fprintf(e.report, "  core.cache_hit_ratio: %d of %d fetch decisions hit a %d-byte cache on the second pass; %d wire fetches\n",
		hits, hits+fetches, budget, fetches)

	// partition + dist at 8 ranks in 2 nodes of 4, counts only: more ranks
	// than cores, so bytes are exact and wall clock is not reported.
	const p8, nodeSize = 8, 4
	w8 := workload.ScatterGenomeBlocks(wl, p8)
	lens := make([]int, len(w8.Lens))
	for i, l := range w8.Lens {
		lens[i] = int(l)
	}
	pt8, err := partition.BySize(lens, p8)
	if err != nil {
		return err
	}
	byRank8 := partition.AssignTasks(w8.Tasks, pt8)
	pairs := partition.TrafficMatrix(byRank8, pt8, w8.Lens)
	var placement []int
	e.timing("partition.place_ms", "ms", scale(timeN(5, func() {
		placement = partition.PlaceByTraffic(pairs, p8, nodeSize)
	}), 1e3))
	_, interID := partition.TrafficSplit(pairs, nil, nodeSize)
	_, interPl := partition.TrafficSplit(pairs, placement, nodeSize)
	e.set("partition.placement_saved_frac", 1-float64(interPl)/float64(interID))
	fmt.Fprintf(e.report, "  partition.placement_saved_frac: planned cross-node bytes %d placed, %d identity\n", interPl, interID)
	tiers := func(noAgg bool) (intra, inter int64, err error) {
		w, err := dist.NewWorld(dist.Config{P: p8, NodeSize: nodeSize, Placement: placement, NoAggregation: noAgg})
		if err != nil {
			return 0, 0, err
		}
		defer w.Close()
		errs := make([]error, p8)
		if err := w.Run(func(r rt.Runtime) {
			in := &core.Input{Part: pt8, Lens: w8.Lens, Tasks: byRank8[r.Rank()], Codec: core.PhantomCodec{Lens: w8.Lens}}
			_, errs[r.Rank()] = core.RunBSP(r, in, core.Config{Exec: core.NoopExecutor{}, MinScore: 1})
		}); err != nil {
			return 0, 0, err
		}
		for rk := 0; rk < p8; rk++ {
			if errs[rk] != nil {
				return 0, 0, errs[rk]
			}
			intra += w.Metrics(rk).IntraBytes
			inter += w.Metrics(rk).InterBytes
		}
		return intra, inter, nil
	}
	intra, inter, err := tiers(false)
	if err != nil {
		return err
	}
	_, interFlat, err := tiers(true)
	if err != nil {
		return err
	}
	e.set("dist.intra_mb_8r", float64(intra)/1e6)
	e.set("dist.inter_mb_8r", float64(inter)/1e6)
	e.set("dist.hier_saved_frac", 1-float64(inter)/float64(interFlat))
	fmt.Fprintf(e.report, "  dist.hier_saved_frac: cross-node bytes %d aggregated, %d flat\n", inter, interFlat)

	// sim: the virtual time the model predicts for the 2-rank BSP pass
	// (one rank per node, so every byte crosses the modelled network).
	eng, err := sim.NewEngine(sim.Config{Machine: sim.CoriKNL(), Nodes: ranks, RanksPerNode: 1, Seed: e.seed})
	if err != nil {
		return err
	}
	simErrs := make([]error, ranks)
	if err := eng.Run(func(r rt.Runtime) {
		in := &core.Input{Part: b.plan.Part, Lens: wl.Lens, Tasks: byRank[r.Rank()], Codec: core.PhantomCodec{Lens: wl.Lens}}
		_, simErrs[r.Rank()] = core.RunBSP(r, in, core.Config{Exec: core.NoopExecutor{}, MinScore: 1})
	}); err != nil {
		return err
	}
	for _, err := range simErrs {
		if err != nil {
			return err
		}
	}
	if measured := e.values["core.bsp_s"]; measured > 0 {
		e.set("sim.pred_over_measured", eng.MaxClock().Seconds()/measured)
		fmt.Fprintf(e.report, "  sim.pred_over_measured: %.6g s predicted over %.6g s measured (core.bsp_s)\n",
			eng.MaxClock().Seconds(), measured)
	}
	return nil
}

func scale(xs []float64, k float64) []float64 {
	for i := range xs {
		xs[i] *= k
	}
	return xs
}

// probeServe times request decoding on the largest job body.
func probeServe(e *env, payloads []payload) error {
	body := payloads[len(payloads)-1].body
	var decErr error
	e.timing("serve.decode_ms", "ms", scale(timeN(5, func() {
		rq, err := serve.DecodeJobRequest("application/json", nil, body, serve.Limits{})
		if err == nil {
			_, err = rq.ReadSet()
		}
		if err != nil {
			decErr = err
		}
	}), 1e3))
	return decErr
}
