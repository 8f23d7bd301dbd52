// Command scaling reproduces the paper's tables and figures.
//
// Each experiment prints one or more fixed-width tables whose rows
// correspond to the paper's plotted series; EXPERIMENTS.md records the
// paper-vs-measured comparison for every one. The experiments are the
// entries of expt.Experiments, run in that order by -experiment all.
//
// Usage:
//
//	scaling -experiment table1|fig3|fig4|fig5|fig6|fig7|fig8|fig9|fig10|fig11|fig12|fig13|intranode|dist|serve|assembly|placement|ablations|all
//	        [-scale30 N] [-scale100 N] [-scaleccs N]   workload scale divisors
//	        [-rpn N]                                   simulated ranks per node
//	        [-nodes 8,16,32]                           node counts for sweeps
//	        [-seed N]
//	        [-intrascale N] [-distscale N] [-servescale N]   wall-clock study divisors
//	        [-csv DIR] [-json DIR]                     table exports
//	        [-trace FILE] [-metrics FILE]              runtime trace exports
//
// Multinode experiments run under the discrete-event simulator with the
// Cori KNL/Aries cost model; "intranode", "dist" and "serve" run the full
// real pipeline with wall-clock timing on the host cores.
//
// -csv and -json write each table of an experiment as <id>.csv (or .json),
// and an experiment with several tables (ablations) as <id>-1.csv,
// <id>-2.csv, ... in print order.
//
// -trace writes a Chrome trace_event JSON (load in Perfetto / about:tracing)
// and -metrics a per-rank metrics table (CSV, or JSON if the path ends in
// .json) for the LAST simulated run of the selected experiment — pick a
// single-run experiment or narrow -nodes to trace a specific configuration.
// -sample N keeps every Nth high-volume event (alignments, RPCs).
//
// Exit status: 0 on success, 1 on a failed run or export, 2 on a usage
// error.
package main

import (
	"errors"
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

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole program: 0 on success, 1 on a failed run, 2 on a usage
// error.
func run(args []string, stdout, stderr io.Writer) int {
	var p expt.Params
	fs := flag.NewFlagSet("scaling", flag.ContinueOnError)
	fs.SetOutput(stderr)
	experiment := fs.String("experiment", "all", "experiment id (table1, fig3..fig13, intranode, dist, serve, assembly, placement, ablations, all)")
	fs.IntVar(&p.ScaleEColi30x, "scale30", 0, "E. coli 30x scale divisor (default 8)")
	fs.IntVar(&p.ScaleEColi100x, "scale100", 0, "E. coli 100x scale divisor (default 64)")
	fs.IntVar(&p.ScaleHumanCCS, "scaleccs", 0, "Human CCS scale divisor (default 256)")
	fs.IntVar(&p.RanksPerNode, "rpn", 0, "simulated ranks per node (default 4)")
	nodesFlag := fs.String("nodes", "", "comma-separated node counts (default per experiment)")
	fs.Int64Var(&p.Seed, "seed", 1, "workload and noise seed")
	fs.IntVar(&p.NodeSize, "node-size", 0, "ranks per node for hierarchical collectives: dist experiment grouping, and node-aggregated alltoallv pricing in simulated runs (0/1 = flat)")
	fs.IntVar(&p.IntraScale, "intrascale", 0, "intranode pipeline scale divisor (default 150)")
	fs.IntVar(&p.DistScale, "distscale", 0, "dist experiment pipeline scale divisor (default 300)")
	fs.IntVar(&p.ServeScale, "servescale", 0, "serve experiment per-job scale divisor (default 600)")
	csvDir := fs.String("csv", "", "also write each experiment's tables as CSV into this directory")
	jsonDir := fs.String("json", "", "also write each experiment's tables as JSON into this directory")
	traceOut := fs.String("trace", "", "write a Chrome trace_event JSON of the last simulated run")
	metricsOut := fs.String("metrics", "", "write per-rank metrics of the last simulated run (CSV, or JSON if path ends in .json)")
	sample := fs.Int("sample", 1, "trace sampling: keep every Nth high-volume event")
	cpuProf := fs.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memProf := fs.String("memprofile", "", "write a pprof heap profile to this file on exit")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2 // the FlagSet has reported it
	}
	if *nodesFlag != "" {
		for _, part := range strings.Split(*nodesFlag, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || n <= 0 {
				fmt.Fprintf(stderr, "scaling: bad -nodes entry %q\n", part)
				return 2
			}
			p.Nodes = append(p.Nodes, n)
		}
	}
	var selected []expt.Experiment
	for _, e := range expt.Experiments {
		if *experiment == "all" || *experiment == e.ID {
			selected = append(selected, e)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(stderr, "scaling: unknown experiment %q\n", *experiment)
		return 2
	}
	if *traceOut != "" || *metricsOut != "" {
		p.NewTracer = func(ranks int) *trace.Tracer {
			return trace.New(ranks, trace.Config{Sample: *sample})
		}
	}

	stopProf, err := prof.Start(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintf(stderr, "scaling: %v\n", err)
		return 1
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintf(stderr, "scaling: %v\n", err)
		}
	}()

	var traced *expt.Row // last traced run across selected experiments
	for _, e := range selected {
		t0 := time.Now()
		res, err := e.Run(p)
		if err != nil {
			fmt.Fprintf(stderr, "scaling: %s: %v\n", e.ID, err)
			return 1
		}
		res.Render(stdout)
		err = writeTables(*csvDir, e.ID, ".csv", res.Tables, (*stats.Table).RenderCSV)
		if err == nil {
			err = writeTables(*jsonDir, e.ID, ".json", res.Tables, (*stats.Table).RenderJSON)
		}
		if err != nil {
			fmt.Fprintf(stderr, "scaling: %s: %v\n", e.ID, err)
			return 1
		}
		for _, r := range res.Rows {
			if r.Trace != nil {
				traced = r
			}
		}
		fmt.Fprintf(stdout, "  [%s completed in %s]\n\n", e.ID, time.Since(t0).Round(time.Millisecond))
	}

	if *traceOut == "" && *metricsOut == "" {
		return 0
	}
	if traced == nil {
		fmt.Fprintf(stderr, "scaling: -trace/-metrics: the selected experiment produced no simulated runs\n")
		return 1
	}
	if *traceOut != "" {
		label := fmt.Sprintf("%s %s nodes=%d ranks=%d", traced.Workload, traced.Mode, traced.Nodes, traced.Ranks)
		if err := trace.WriteFile(*traceOut, func(w io.Writer) error {
			return trace.WriteChromeTrace(w, traced.Trace, label)
		}); err != nil {
			fmt.Fprintf(stderr, "scaling: -trace: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "  [trace of %s -> %s]\n", label, *traceOut)
	}
	if *metricsOut != "" {
		if err := trace.WriteMetricsFile(*metricsOut, "", traced.TraceRows, trace.WriteMetricsCSV, trace.WriteMetricsJSON); err != nil {
			fmt.Fprintf(stderr, "scaling: -metrics: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "  [metrics of %s %s nodes=%d -> %s]\n", traced.Workload, traced.Mode, traced.Nodes, *metricsOut)
	}
	return 0
}

// writeTables writes an experiment's tables into dir (nothing when dir is
// ""): one table as <id><ext>, several as <id>-1<ext>, <id>-2<ext>, ...
func writeTables(dir, id, ext string, tables []*stats.Table, render func(*stats.Table, io.Writer) error) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for i, t := range tables {
		name := id + ext
		if len(tables) > 1 {
			name = fmt.Sprintf("%s-%d%s", id, i+1, ext)
		}
		if err := trace.WriteFile(filepath.Join(dir, name), func(w io.Writer) error { return render(t, w) }); err != nil {
			return err
		}
	}
	return nil
}
