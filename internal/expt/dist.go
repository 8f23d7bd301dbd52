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

// DistRow is one configuration of the distributed-backend experiment: the
// full real pipeline run over the message-passing runtime on one fabric.
type DistRow struct {
	Transport  string // "loopback" or "tcp"
	Mode       Mode
	Ranks      int
	Elapsed    time.Duration
	Hits       int
	Msgs       int64
	Bytes      int64 // payload bytes sent, summed over ranks
	StoreBytes int64 // largest per-rank resident read-store footprint
	PeakExch   int64 // largest per-rank superstep exchange / in-flight RPC bytes
}

// DistParams sizes the distributed-backend experiment.
type DistParams struct {
	Scale     int    // E. coli 30x ÷ scale through the real pipeline (default 300)
	Ranks     int    // rank count (default 4)
	Transport string // "loopback", "tcp" or "both" (default "both")
	Seed      int64

	CacheBudget int64 // per-rank remote-read cache bytes (0 off, <0 unbounded)
	NodeSize    int   // ranks per node for hierarchical collectives (0/1 flat)
}

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

// Dist runs the real alignment pipeline over the message-passing backend on
// the selected fabrics and checks every configuration against the serial
// reference — the wall-clock companion to the cross-backend conformance
// battery, sized so the TCP rows expose genuine socket overhead.
func Dist(p DistParams) (*stats.Table, []DistRow, error) {
	if p.Scale <= 0 {
		p.Scale = 300
	}
	if p.Ranks <= 0 {
		p.Ranks = 4
	}
	if p.Transport == "" {
		p.Transport = "both"
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	var fabrics []string
	switch p.Transport {
	case "both":
		fabrics = []string{"loopback", "tcp"}
	case "loopback", "tcp":
		fabrics = []string{p.Transport}
	default:
		return nil, nil, fmt.Errorf("expt: unknown dist transport %q", p.Transport)
	}

	reads, tasks, _, err := workload.Pipeline(workload.EColi30x, p.Scale, p.Seed)
	if err != nil {
		return nil, nil, err
	}
	lens := workload.LensOf(reads)
	sc := align.DefaultScoring()
	ref, err := core.SerialHits(reads, tasks, sc, 15, 100)
	if err != nil {
		return nil, nil, err
	}
	pt, byRank, err := ownerTasks(lens, tasks, p.Ranks)
	if err != nil {
		return nil, nil, err
	}
	cfg := core.Config{Exec: core.RealExecutor{Scoring: sc, X: 15}, MinScore: 100, CacheBudget: p.CacheBudget}

	var rows []DistRow
	for _, fabric := range fabrics {
		for _, mode := range []Mode{BSP, Async} {
			var world *dist.World
			if fabric == "tcp" {
				eps, err := tcpFabric(p.Ranks)
				if err != nil {
					return nil, nil, err
				}
				world, err = dist.NewWorldOver(eps, dist.Config{NodeSize: p.NodeSize})
				if err != nil {
					return nil, nil, err
				}
			} else {
				world, err = dist.NewWorld(dist.Config{P: p.Ranks, NodeSize: p.NodeSize})
				if err != nil {
					return nil, nil, err
				}
			}
			t0 := time.Now()
			results, err := alignPass(world, mode, len(byRank), scopedInputs(pt, lens, byRank, reads), cfg)
			if err != nil {
				world.Close()
				return nil, nil, fmt.Errorf("dist/%s %s: %w", fabric, mode, err)
			}
			row := DistRow{Transport: fabric, Mode: mode, Ranks: p.Ranks, Elapsed: time.Since(t0)}
			for rk := 0; rk < p.Ranks; rk++ {
				row.Hits += len(results[rk].Hits)
				row.Msgs += world.Metrics(rk).Msgs
				row.Bytes += world.Metrics(rk).BytesSent
				if sb := world.Metrics(rk).StoreBytes; sb > row.StoreBytes {
					row.StoreBytes = sb
				}
				pk := world.Metrics(rk).PeakExchange
				if rp := world.Metrics(rk).PeakRPCBytes; rp > pk {
					pk = rp
				}
				if pk > row.PeakExch {
					row.PeakExch = pk
				}
			}
			world.Close()
			if row.Hits != len(ref) {
				return nil, nil, fmt.Errorf("dist/%s %s: %d hits, serial reference has %d",
					fabric, mode, row.Hits, len(ref))
			}
			rows = append(rows, row)
		}
	}
	t := &stats.Table{
		Title: fmt.Sprintf("Distributed backend (real pipeline, E. coli 30x ÷ %d, %d ranks, wall clock)",
			p.Scale, p.Ranks),
		Headers: []string{"transport", "mode", "ranks", "elapsed", "hits", "msgs", "bytes", "store/rank", "peak-exch"},
	}
	for _, r := range rows {
		t.AddRow(r.Transport, string(r.Mode), fmt.Sprint(r.Ranks), stats.FmtDur(r.Elapsed),
			fmt.Sprint(r.Hits), fmt.Sprint(r.Msgs), stats.FmtBytes(r.Bytes),
			stats.FmtBytes(r.StoreBytes), stats.FmtBytes(r.PeakExch))
	}
	return t, rows, nil
}
