// Command scaling reproduces the paper's tables and figures.
//
// Each experiment prints a fixed-width table whose rows correspond to the
// paper's plotted series; EXPERIMENTS.md records the paper-vs-measured
// comparison for every one.
//
// Usage:
//
//	scaling -experiment table1|fig3|fig4|fig5|fig6|fig7|fig8|fig9|fig10|fig11|fig12|fig13|intranode|dist|serve|assembly|ablations|placement|all
//	        [-scale30 N] [-scale100 N] [-scaleccs N]   workload scale divisors
//	        [-rpn N]                                   simulated ranks per node
//	        [-nodes 8,16,32]                           node counts for sweeps
//	        [-seed N]
//	        [-csv DIR] [-json DIR]                     table exports
//	        [-trace FILE] [-metrics FILE]              runtime trace exports
//
// Multinode experiments run under the discrete-event simulator with the
// Cori KNL/Aries cost model; "intranode" runs the full real pipeline with
// wall-clock timing on the host cores.
//
// -trace writes a Chrome trace_event JSON (load in Perfetto / about:tracing)
// and -metrics a per-rank metrics table (CSV, or JSON if the path ends in
// .json) for the LAST simulated run of the selected experiment — pick a
// single-run experiment or narrow -nodes to trace a specific configuration.
// -sample N keeps every Nth high-volume event (alignments, RPCs).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"gnbody/internal/expt"
	"gnbody/internal/prof"
	"gnbody/internal/stats"
	"gnbody/internal/trace"
)

func main() {
	var (
		experiment = flag.String("experiment", "all", "experiment id (table1, fig3..fig13, intranode, dist, serve, assembly, ablations, placement, all)")
		scale30    = flag.Int("scale30", 0, "E. coli 30x scale divisor (default 8)")
		scale100   = flag.Int("scale100", 0, "E. coli 100x scale divisor (default 64)")
		scaleccs   = flag.Int("scaleccs", 0, "Human CCS scale divisor (default 256)")
		rpn        = flag.Int("rpn", 0, "simulated ranks per node (default 4)")
		nodesFlag  = flag.String("nodes", "", "comma-separated node counts (default per experiment)")
		seed       = flag.Int64("seed", 1, "workload and noise seed")
		cacheB     = flag.Int64("cache-budget", 0, "per-rank remote-read cache budget in bytes (0 disables, negative = unbounded)")
		nodeSize   = flag.Int("node-size", 0, "ranks per node for hierarchical collectives: dist experiment grouping, and node-aggregated alltoallv pricing in simulated runs (0/1 = flat)")
		intrascale = flag.Int("intrascale", 0, "intranode pipeline scale divisor (default 150)")
		distscale  = flag.Int("distscale", 0, "dist experiment pipeline scale divisor (default 300)")
		distranks  = flag.Int("distranks", 0, "dist experiment rank count (default 4)")
		disttrans  = flag.String("disttransport", "", "dist experiment fabric: loopback, tcp or both (default both)")
		servescale = flag.Int("servescale", 0, "serve experiment per-job scale divisor (default 600)")
		servejobs  = flag.Int("servejobs", 0, "serve experiment jobs per phase (default 4)")
		stagesFlag = flag.String("stages", "", "assembly experiment chain prefix: overlap, graph, reduce or contigs (default contigs)")
		asmGenome  = flag.Int("asm-genome", 0, "assembly experiment genome length in bp (default 30000)")
		csvDir     = flag.String("csv", "", "also write each experiment's table as CSV into this directory")
		jsonDir    = flag.String("json", "", "also write each experiment's table as JSON into this directory")
		traceOut   = flag.String("trace", "", "write a Chrome trace_event JSON of the last simulated run")
		metricsOut = flag.String("metrics", "", "write per-rank metrics of the last simulated run (CSV, or JSON if path ends in .json)")
		sample     = flag.Int("sample", 1, "trace sampling: keep every Nth high-volume event")
		cpuProf    = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memProf    = flag.String("memprofile", "", "write a pprof heap profile to this file on exit")
	)
	flag.Parse()
	stopProf, err := prof.Start(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintf(os.Stderr, "scaling: %v\n", err)
		os.Exit(1)
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintf(os.Stderr, "scaling: %v\n", err)
		}
	}()

	p := expt.Params{
		ScaleEColi30x:  *scale30,
		ScaleEColi100x: *scale100,
		ScaleHumanCCS:  *scaleccs,
		RanksPerNode:   *rpn,
		Seed:           *seed,
		CacheBudget:    *cacheB,
		NodeSize:       *nodeSize,
	}
	if *nodesFlag != "" {
		for _, part := range strings.Split(*nodesFlag, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || n <= 0 {
				fmt.Fprintf(os.Stderr, "scaling: bad -nodes entry %q\n", part)
				os.Exit(2)
			}
			p.Nodes = append(p.Nodes, n)
		}
	}
	if *traceOut != "" || *metricsOut != "" {
		p.NewTracer = func(ranks int) *trace.Tracer {
			return trace.New(ranks, trace.Config{Sample: *sample})
		}
	}

	// Every runner yields the rendered table plus the rows behind it (nil
	// for experiments without simulated rows); the trace exporters consume
	// the last traced row.
	type runner func() (*stats.Table, []*expt.Row, error)
	wrapM := func(f func(expt.Params) (*stats.Table, map[expt.Mode][]*expt.Row, error)) runner {
		return func() (*stats.Table, []*expt.Row, error) {
			t, byMode, err := f(p)
			var rows []*expt.Row
			for _, m := range []expt.Mode{expt.BSP, expt.Async, expt.AsyncSteal} {
				rows = append(rows, byMode[m]...)
			}
			return t, rows, err
		}
	}
	experiments := []struct {
		id  string
		run runner
	}{
		{"table1", func() (*stats.Table, []*expt.Row, error) { t, _, err := expt.Table1(p); return t, nil, err }},
		{"fig3", func() (*stats.Table, []*expt.Row, error) { return expt.Fig3(p) }},
		{"fig4", func() (*stats.Table, []*expt.Row, error) { return expt.Fig4(p) }},
		{"fig5", func() (*stats.Table, []*expt.Row, error) { return expt.Fig5(p) }},
		{"fig6", func() (*stats.Table, []*expt.Row, error) { return expt.Fig6(p) }},
		{"fig7", wrapM(expt.Fig7)},
		{"fig8", wrapM(expt.Fig8)},
		{"fig9", wrapM(expt.Fig9)},
		{"fig10", wrapM(expt.Fig10)},
		{"fig11", wrapM(expt.Fig11)},
		{"fig12", wrapM(expt.Fig12)},
		{"fig13", wrapM(expt.Fig13)},
		{"intranode", func() (*stats.Table, []*expt.Row, error) {
			t, _, err := expt.Intranode(expt.IntranodeParams{Scale: *intrascale, Seed: *seed,
				CacheBudget: *cacheB})
			return t, nil, err
		}},
		{"dist", func() (*stats.Table, []*expt.Row, error) {
			t, _, err := expt.Dist(expt.DistParams{Scale: *distscale, Ranks: *distranks,
				Transport: *disttrans, Seed: *seed,
				CacheBudget: *cacheB, NodeSize: *nodeSize})
			return t, nil, err
		}},
		{"serve", func() (*stats.Table, []*expt.Row, error) {
			t, _, err := expt.Serve(expt.ServeParams{Scale: *servescale,
				Jobs: *servejobs, Seed: *seed})
			return t, nil, err
		}},
		{"assembly", func() (*stats.Table, []*expt.Row, error) {
			t, err := expt.Assembly(expt.AssemblyParams{
				GenomeLen: *asmGenome, Stages: *stagesFlag,
				Nodes: p.Nodes, RPN: *rpn, Seed: *seed})
			return t, nil, err
		}},
		{"placement", func() (*stats.Table, []*expt.Row, error) {
			t, err := expt.PlacementSweep(p)
			return t, nil, err
		}},
		{"ablations", func() (*stats.Table, []*expt.Row, error) {
			var rows []*expt.Row
			t1, r1, err := expt.AblationOutstanding(p, nil)
			if err != nil {
				return nil, nil, err
			}
			t1.Render(os.Stdout)
			fmt.Println()
			rows = append(rows, r1...)
			t2, r2, err := expt.AblationAggregation(p, nil)
			if err != nil {
				return nil, nil, err
			}
			t2.Render(os.Stdout)
			fmt.Println()
			rows = append(rows, r2...)
			t3, m3, err := expt.AblationNetwork(p)
			if err != nil {
				return nil, nil, err
			}
			t3.Render(os.Stdout)
			fmt.Println()
			for _, m := range []expt.Mode{expt.BSP, expt.Async} {
				rows = append(rows, m3[m]...)
			}
			t4, r4, err := expt.AblationFetchBatch(p, nil)
			if err != nil {
				return nil, nil, err
			}
			t4.Render(os.Stdout)
			fmt.Println()
			rows = append(rows, r4...)
			t5, m5, err := expt.AblationDynamicBalance(p)
			if err != nil {
				return nil, nil, err
			}
			for _, m := range []expt.Mode{expt.Async, expt.AsyncSteal} {
				rows = append(rows, m5[m]...)
			}
			return t5, rows, nil
		}},
	}

	writeTable := func(dir, name string, render func(io.Writer) error) {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "scaling: %v\n", err)
			os.Exit(1)
		}
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			fmt.Fprintf(os.Stderr, "scaling: %v\n", err)
			os.Exit(1)
		}
		if err := render(f); err != nil {
			fmt.Fprintf(os.Stderr, "scaling: %v\n", err)
			os.Exit(1)
		}
		f.Close()
	}

	var traced *expt.Row // last traced run across selected experiments
	ran := false
	for _, e := range experiments {
		if *experiment != "all" && *experiment != e.id {
			continue
		}
		ran = true
		t0 := time.Now()
		table, rows, err := e.run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "scaling: %s: %v\n", e.id, err)
			os.Exit(1)
		}
		table.Render(os.Stdout)
		if *csvDir != "" {
			writeTable(*csvDir, e.id+".csv", table.RenderCSV)
		}
		if *jsonDir != "" {
			writeTable(*jsonDir, e.id+".json", table.RenderJSON)
		}
		for _, r := range rows {
			if r != nil && r.Trace != nil {
				traced = r
			}
		}
		fmt.Printf("  [%s completed in %s]\n\n", e.id, time.Since(t0).Round(time.Millisecond))
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "scaling: unknown experiment %q\n", *experiment)
		os.Exit(2)
	}

	if (*traceOut != "" || *metricsOut != "") && traced == nil {
		fmt.Fprintf(os.Stderr, "scaling: -trace/-metrics: the selected experiment produced no simulated runs\n")
		os.Exit(1)
	}
	if *traceOut != "" {
		label := fmt.Sprintf("%s %s nodes=%d ranks=%d", traced.Workload, traced.Mode, traced.Nodes, traced.Ranks)
		if err := trace.WriteFile(*traceOut, func(w io.Writer) error {
			return trace.WriteChromeTrace(w, traced.Trace, label)
		}); err != nil {
			fmt.Fprintf(os.Stderr, "scaling: -trace: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("  [trace of %s -> %s]\n", label, *traceOut)
	}
	if *metricsOut != "" {
		if err := trace.WriteMetricsFile(*metricsOut, "", traced.TraceRows, trace.WriteMetricsCSV, trace.WriteMetricsJSON); err != nil {
			fmt.Fprintf(os.Stderr, "scaling: -metrics: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("  [metrics of %s %s nodes=%d -> %s]\n", traced.Workload, traced.Mode, traced.Nodes, *metricsOut)
	}
}
