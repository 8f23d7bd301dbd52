package expt

import (
	"fmt"
	"net"
	"sync"
	"time"

	"gnbody/internal/align"
	"gnbody/internal/core"
	"gnbody/internal/dist"
	"gnbody/internal/stats"
	"gnbody/internal/transport"
	"gnbody/internal/workload"
)

// distRanks is the dist experiment's world size.
const distRanks = 4

// tcpFabric rendezvouses an n-rank localhost socket mesh in-process.
func tcpFabric(n int) ([]transport.Transport, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	fabric := make([]transport.Transport, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cfg := transport.TCPConfig{Addr: addr, Timeout: 30 * time.Second}
			if i == 0 {
				cfg.Listener = ln
			}
			fabric[i], errs[i] = transport.Rendezvous(i, n, cfg)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("rendezvous rank %d: %w", i, err)
		}
	}
	return fabric, nil
}

// distWorld builds a distRanks-rank world on the named fabric.
func distWorld(fabric string, nodeSize int) (*dist.World, error) {
	if fabric == "loopback" {
		return dist.NewWorld(dist.Config{P: distRanks, NodeSize: nodeSize})
	}
	eps, err := tcpFabric(distRanks)
	if err != nil {
		return nil, err
	}
	return dist.NewWorldOver(eps, dist.Config{NodeSize: nodeSize})
}

// Dist runs the real alignment pipeline over the message-passing backend on
// both fabrics, loopback and TCP, and checks every configuration against
// the serial reference — the wall-clock companion to the cross-backend
// conformance battery, sized so the TCP rows expose genuine socket
// overhead.
func Dist(p Params) (Result, error) {
	p = p.defaults()
	reads, tasks, _, err := workload.Pipeline(workload.EColi30x, p.DistScale, p.Seed)
	if err != nil {
		return Result{}, err
	}
	lens := workload.LensOf(reads)
	sc := align.DefaultScoring()
	ref, err := core.SerialHits(reads, tasks, sc, 15, 100)
	if err != nil {
		return Result{}, err
	}
	pt, byRank, err := ownerTasks(lens, tasks, distRanks)
	if err != nil {
		return Result{}, err
	}
	cfg := core.Config{Exec: core.RealExecutor{Scoring: sc, X: 15}, MinScore: 100, CacheBudget: p.CacheBudget}

	t := &stats.Table{
		Title: fmt.Sprintf("Distributed backend (real pipeline, E. coli 30x ÷ %d, %d ranks, wall clock)",
			p.DistScale, distRanks),
		Headers: []string{"transport", "mode", "ranks", "elapsed", "hits", "msgs", "bytes", "store/rank", "peak-exch"},
	}
	for _, fabric := range []string{"loopback", "tcp"} {
		for _, mode := range paperModes {
			world, err := distWorld(fabric, p.NodeSize)
			if err != nil {
				return Result{}, err
			}
			t0 := time.Now()
			results, err := alignPass(world, mode, len(byRank), scopedInputs(pt, lens, byRank, reads), cfg)
			elapsed := time.Since(t0)
			if err != nil {
				world.Close()
				return Result{}, fmt.Errorf("dist/%s %s: %w", fabric, mode, err)
			}
			hits := 0
			var msgs, sent, store, peak int64
			for rk := 0; rk < distRanks; rk++ {
				m := world.Metrics(rk)
				hits += len(results[rk].Hits)
				msgs += m.Msgs
				sent += m.BytesSent
				store = max(store, m.StoreBytes)
				peak = max(peak, m.PeakExchange, m.PeakRPCBytes)
			}
			world.Close()
			if hits != len(ref) {
				return Result{}, fmt.Errorf("dist/%s %s: %d hits, serial reference has %d",
					fabric, mode, hits, len(ref))
			}
			t.AddRow(fabric, string(mode), fmt.Sprint(distRanks), stats.FmtDur(elapsed),
				fmt.Sprint(hits), fmt.Sprint(msgs), stats.FmtBytes(sent),
				stats.FmtBytes(store), stats.FmtBytes(peak))
		}
	}
	return Result{Tables: []*stats.Table{t}}, nil
}
