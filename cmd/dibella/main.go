// Command dibella runs the full many-to-many long-read alignment pipeline
// on a FASTA/FASTQ input: size-uniform read partitioning, distributed
// k-mer histogram with BELLA-model reliable-k-mer filtering, candidate
// (task) discovery, task redistribution under the owner invariant, and the
// exchange-and-align phase under either coordination strategy:
//
//	-mode bsp    bulk-synchronous aggregated exchanges (§3.1)
//	-mode async  asynchronous pull RPCs with overlap (§3.2)
//
// Ranks are host goroutines (the real runtime); -procs sets how many.
// With -dist, ranks are separate OS processes connected by the TCP
// transport instead: `dibella -dist -procs 4 ...` self-forks 4 local worker
// processes that rendezvous on a free localhost port, run the identical
// pipeline over the message-passing backend, gather the result to rank 0,
// and write the same output. For multi-host launches start each worker by
// hand with explicit coordinates: `-dist -rank R -peers P -addr host:port`
// (rank 0's host listens on -addr).
//
// Every run is one staged collective region (see stages.go): -stages picks
// how far the chain goes and therefore the artifact — overlap (the
// default) writes one line per saved alignment, readA readB score; graph,
// reduce and contigs continue into assembly. A per-stage, per-rank runtime
// breakdown goes to stderr.
//
// Usage:
//
//	dibella -in reads.fa -mode async -procs 8 -k 17 -x 15 -minscore 100 \
//	        [-coverage 30 -error 0.15 | -lofreq 2 -hifreq 40] [-mem BYTES] \
//	        [-stages overlap|graph|reduce|contigs] [-stage-metrics FILE] \
//	        [-dist [-rank R -peers P -addr HOST:PORT]]
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"gnbody/internal/dist"
	"gnbody/internal/launch"
	"gnbody/internal/par"
	"gnbody/internal/pipeline"
	"gnbody/internal/prof"
	"gnbody/internal/rt"
	"gnbody/internal/seq"
	"gnbody/internal/stats"
	"gnbody/internal/topo"
	"gnbody/internal/trace"
	"gnbody/internal/transport"
	"gnbody/internal/workload"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole program: 0 on success, 1 on a failed run, 2 on a usage
// error.
func run(args []string, stdout, stderr io.Writer) int {
	o, code := parseOptions(args, stderr)
	if o == nil {
		return code
	}
	if err := o.execute(args, stdout, stderr); err != nil {
		fmt.Fprintf(stderr, "dibella: %v\n", err)
		return 1
	}
	return 0
}

// options is the parsed and validated command line.
type options struct {
	job pipeline.JobSpec // -k -x -minscore -coverage -error -lofreq -hifreq -mode

	in, stages, outPath                   string
	stageMetrics, traceOut, metrics       string
	cpuProf, memProf, addr, placementFlag string

	procs, slack, minOv, fuzz, sample, nodeSize int
	rank, peers                                 int
	mem                                         int64
	paf, dist                                   bool
	deadline                                    time.Duration

	placement []int // -placement resolved to a rank→slot permutation (nil = identity)
}

// parseOptions parses and validates args. On a usage error (or -h) it has
// already written the message to stderr and returns nil plus the exit code.
func parseOptions(args []string, stderr io.Writer) (*options, int) {
	o := &options{}
	fs := flag.NewFlagSet("dibella", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o.job.Bind(fs)
	fs.StringVar(&o.in, "in", "", "input FASTA/FASTQ (required)")
	fs.IntVar(&o.procs, "procs", 4, "number of ranks (goroutines)")
	fs.Int64Var(&o.mem, "mem", 0, "per-rank exchange memory budget in bytes (0 = unlimited)")
	fs.IntVar(&o.nodeSize, "node-size", 0, "-dist: group this many consecutive ranks per node and aggregate collectives hierarchically (0/1 = flat)")
	fs.StringVar(&o.placementFlag, "placement", "", "-dist: rank→slot placement permutation: identity (default), reverse, or an explicit comma-separated slot list — regroups which ranks share a -node-size node (results are identical under any placement)")
	fs.StringVar(&o.outPath, "out", "", "output path (default stdout)")
	fs.StringVar(&o.stages, "stages", "overlap", "run the pipeline through this stage: overlap (hit TSV), graph (string-graph edge TSV), reduce (transitively reduced edge TSV) or contigs (FASTA); each includes all earlier stages")
	fs.IntVar(&o.slack, "slack", 50, "assembly stages: tolerated unaligned overhang at read ends when classifying overlaps")
	fs.IntVar(&o.minOv, "minoverlap", 100, "assembly stages: discard alignments spanning fewer bases on either read")
	fs.IntVar(&o.fuzz, "fuzz", 0, "assembly stages: transitive-reduction length tolerance in bases")
	fs.StringVar(&o.stageMetrics, "stage-metrics", "", "write per-stage per-rank metrics, one row per stage and rank (CSV, or JSON if path ends in .json)")
	fs.BoolVar(&o.paf, "paf", false, "emit PAF records (with cg:Z cigar tags) instead of TSV; needs -stages overlap and in-process ranks")
	fs.StringVar(&o.traceOut, "trace", "", "write a Chrome trace_event JSON of the run (load in Perfetto)")
	fs.StringVar(&o.metrics, "metrics", "", "write per-rank metrics totalled over the whole run, all stages and the result gather included (CSV, or JSON if path ends in .json)")
	fs.IntVar(&o.sample, "sample", 1, "trace sampling: keep every Nth high-volume event")
	fs.BoolVar(&o.dist, "dist", false, "run ranks as separate OS processes over the TCP transport (self-forks -procs workers unless -rank is set)")
	fs.IntVar(&o.rank, "rank", -1, "this worker's rank in a -dist job (set by the self-fork launcher, or by hand for multi-host runs)")
	fs.IntVar(&o.peers, "peers", 0, "total rank count of a -dist job (defaults to -procs)")
	fs.StringVar(&o.addr, "addr", "", "rendezvous address host:port of rank 0 in a -dist job (auto-picked when self-forking)")
	fs.DurationVar(&o.deadline, "progress-deadline", dist.DefaultProgressDeadline,
		"-dist: fail a rank blocked in a collective with no inbound traffic for this long (0 disables)")
	fs.StringVar(&o.cpuProf, "cpuprofile", "", "write a pprof CPU profile to this file (rank-suffixed in -dist mode)")
	fs.StringVar(&o.memProf, "memprofile", "", "write a pprof heap profile to this file on exit (rank-suffixed in -dist mode)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil, 0
		}
		return nil, 2 // the FlagSet has reported it
	}
	if o.in == "" {
		fmt.Fprintln(stderr, "dibella: -in is required")
		fs.Usage()
		return nil, 2
	}
	if err := o.validate(); err != nil {
		fmt.Fprintf(stderr, "dibella: %v\n", err)
		return nil, 2
	}
	return o, 0
}

// validate rejects flag combinations that cannot run and resolves the
// -dist rank count and -placement.
func (o *options) validate() error {
	if err := o.job.Validate(); err != nil {
		return err
	}
	switch {
	case stageChainIndex(o.stages) < 0:
		return fmt.Errorf("unknown -stages %q (want overlap, graph, reduce or contigs)", o.stages)
	case o.paf && o.stages != "overlap":
		return fmt.Errorf("-paf emits overlap records and needs -stages overlap")
	case o.paf && o.dist:
		return fmt.Errorf("-paf needs every rank's task table and is not supported with -dist")
	case o.placementFlag != "" && !o.dist:
		return fmt.Errorf("-placement needs -dist (in-process ranks have no node topology)")
	}
	if o.dist {
		if o.peers <= 0 {
			o.peers = o.procs
		}
		o.procs = o.peers
		if o.rank >= o.peers {
			return fmt.Errorf("-rank %d out of range for -peers %d", o.rank, o.peers)
		}
		if o.rank >= 0 && o.addr == "" {
			return fmt.Errorf("a -dist worker needs -addr (rank 0's rendezvous address)")
		}
	}
	if o.procs < 1 {
		return fmt.Errorf("-procs %d: need at least one rank", o.procs)
	}
	// Placement is parsed once -peers has fixed the final rank count.
	var err error
	if o.placement, err = parsePlacement(o.placementFlag, o.procs); err != nil {
		return fmt.Errorf("-placement: %w", err)
	}
	return nil
}

// backendWorld is the slice of the backend API dibella drives: par.World
// for the in-process runtime, distRankWorld for one rank of a -dist job.
type backendWorld interface {
	Run(func(rt.Runtime)) error
	Metrics(i int) *rt.Metrics
}

// distRankWorld adapts a single dist.Rank (this process's rank) to the
// backendWorld interface. Metrics is only meaningful for the local rank.
type distRankWorld struct{ r *dist.Rank }

func (d distRankWorld) Run(f func(rt.Runtime)) error { return d.r.Run(f) }
func (d distRankWorld) Metrics(i int) *rt.Metrics {
	if i != d.r.Rank() {
		panic(fmt.Sprintf("dibella: metrics for rank %d unavailable in process of rank %d", i, d.r.Rank()))
	}
	return d.r.Metrics()
}

// session is one process's run: the options plus the backend and the read
// data this process holds.
type session struct {
	*options
	stdout, stderr io.Writer

	myRank int // this process's rank under -dist, else 0
	world  backendWorld
	tracer *trace.Tracer
	plan   *pipeline.Plan // partition and discovery window; stages.go adds the stage list

	lens    []int32         // every read's length (replicated metadata)
	reads   *seq.ReadSet    // in-process mode: the shared full set
	ix      *seq.FileIndex  // -dist mode: replicated per-record index
	myStore *seq.SliceStore // -dist mode: this rank's partition range
}

// logf writes informational stderr output, from one process only under -dist.
func (s *session) logf(format string, args ...any) {
	if s.myRank == 0 {
		fmt.Fprintf(s.stderr, format, args...)
	}
}

// localRanks lists the ranks whose state lives in this process: all of
// them in-process, this worker's own under -dist.
func (s *session) localRanks() []int {
	if s.dist {
		return []int{s.myRank}
	}
	ranks := make([]int, s.procs)
	for rk := range ranks {
		ranks[rk] = rk
	}
	return ranks
}

// rankSuffix tags per-process output files under -dist (".rankN").
func (s *session) rankSuffix() string {
	if s.dist {
		return fmt.Sprintf(".rank%d", s.myRank)
	}
	return ""
}

// storeFor hands a rank its owner-only view of the reads: the physical
// per-rank slice in -dist mode, an enforcing scoped view of the shared set
// in-process. Out-of-partition Gets panic in -dist workers and are counted
// into the rank's metrics in-process.
func (s *session) storeFor(r rt.Runtime) seq.Store {
	if s.dist {
		return s.myStore
	}
	lo, hi := s.plan.Part.Range(r.Rank())
	return seq.ScopeCounting(s.reads, lo, hi, s.lens, &r.Metrics().OOPGets)
}

// nameOf resolves a read's name — from the replicated index in -dist mode,
// where rank 0 does not hold the other ranks' records.
func (s *session) nameOf(id seq.ReadID) string {
	if s.dist {
		return s.ix.Names[id]
	}
	return s.reads.Get(id).Name
}

// execute runs the validated command line in this process: the self-fork
// coordinator, one -dist worker, or the in-process world.
func (o *options) execute(args []string, stdout, stderr io.Writer) error {
	if o.dist && o.rank < 0 {
		// Coordinator: pick a rendezvous port and re-exec one worker process
		// per rank with explicit coordinates appended (later flags override
		// the ones already on the command line).
		addr := o.addr
		if addr == "" {
			var err error
			if addr, err = launch.FreeLocalAddr(); err != nil {
				return err
			}
		}
		return launch.SelfFork(o.peers, func(rank int) []string {
			return append(append([]string{}, args...),
				"-rank", fmt.Sprint(rank), "-peers", fmt.Sprint(o.peers), "-addr", addr)
		})
	}
	s := &session{options: o, stdout: stdout, stderr: stderr}
	if o.dist {
		s.myRank = o.rank
	}

	// Under -dist only the workers profile, each into a rank-suffixed file
	// (same convention as -trace and -metrics).
	cpuPath, memPath := o.cpuProf, o.memProf
	if cpuPath != "" {
		cpuPath += s.rankSuffix()
	}
	if memPath != "" {
		memPath += s.rankSuffix()
	}
	stopProf, err := prof.Start(cpuPath, memPath)
	if err != nil {
		return err
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintf(stderr, "dibella: %v\n", err)
		}
	}()

	// Owner-only data residency: in -dist mode no process ever loads the
	// whole read set. Every worker scans the input once for metadata (the
	// per-record index: offsets, lengths, names — the replicated O(n)
	// exception), then seeks to and parses only its own partition range.
	// In-process mode loads the full set once and hands each rank an
	// enforcing owner-only view of it.
	t0 := time.Now()
	if o.dist {
		if s.ix, err = seq.IndexFile(o.in); err != nil {
			return err
		}
		s.lens = s.ix.Lens
		s.logf("dibella: indexed %s in %s\n", seq.StatsFromLens(s.lens), time.Since(t0).Round(time.Millisecond))
	} else {
		if s.reads, err = seq.LoadFile(o.in); err != nil {
			return err
		}
		s.lens = workload.LensOf(s.reads)
		s.logf("dibella: loaded %s in %s\n", s.reads.ComputeStats(), time.Since(t0).Round(time.Millisecond))
	}

	if s.plan, err = pipeline.NewPlan(s.lens, o.procs, o.job.Discovery()); err != nil {
		return err
	}
	if o.traceOut != "" || o.metrics != "" {
		s.tracer = trace.New(o.procs, trace.Config{Sample: o.sample})
	}
	var distRank *dist.Rank
	if o.dist {
		if distRank, err = s.joinDist(); err != nil {
			return err
		}
	} else if s.world, err = par.NewWorld(par.Config{P: o.procs, MemBudget: o.mem, Tracer: s.tracer}); err != nil {
		return err
	}
	runErr := s.runPipeline()
	if runErr == nil && distRank != nil {
		// Graceful departure: ranks finish at different times, and the bye
		// handshake keeps our exit from looking like a crash to peers still
		// polling.
		distRank.Close()
	}
	return errors.Join(runErr, s.writeRunArtifacts())
}

// joinDist makes this process one rank of the -dist job: rendezvous over
// TCP, agree on the input — every worker indexed its own copy of the file;
// one mismatched byte anywhere would silently skew the partition — then
// materialise only this rank's partition range from disk.
func (s *session) joinDist() (*dist.Rank, error) {
	tp, err := transport.Rendezvous(s.myRank, s.procs, transport.TCPConfig{
		Addr: s.addr, Timeout: 60 * time.Second})
	if err != nil {
		return nil, fmt.Errorf("rank %d rendezvous at %s: %w", s.myRank, s.addr, err)
	}
	pd := s.deadline
	if pd == 0 {
		pd = -1 // flag 0 means "disable"; dist.Config 0 means "default"
	}
	distRank := dist.NewRank(tp, dist.Config{
		MemBudget: s.mem, Tracer: s.tracer, ProgressDeadline: pd,
		NodeSize: s.nodeSize, Placement: s.placement})
	s.world = distRankWorld{distRank}
	// Graceful drain: a signal aborts the transport, so the collective this
	// rank is blocked in fails with a typed RankError instead of the process
	// dying mid-exchange — the failed run still exports this rank's trace
	// and metrics before exiting.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-sigc
		fmt.Fprintf(s.stderr, "dibella: rank %d: %v — draining (aborting transport)\n", s.myRank, sig)
		if ab, ok := tp.(transport.Aborter); ok {
			ab.Abort()
		} else {
			tp.Close()
		}
	}()

	sum := s.ix.Checksum()
	var agreeErr error
	if err := s.world.Run(func(r rt.Runtime) {
		if r.Allreduce(sum, rt.OpMin) != r.Allreduce(sum, rt.OpMax) {
			agreeErr = fmt.Errorf("input index checksum %#x disagrees across ranks — workers see different files", uint64(sum))
		}
	}); err != nil {
		return nil, err
	}
	if agreeErr != nil {
		return nil, agreeErr
	}
	lo, hi := s.plan.Part.Range(s.myRank)
	t0 := time.Now()
	if s.myStore, err = seq.LoadFileRange(s.in, s.ix, lo, hi); err != nil {
		return nil, fmt.Errorf("rank %d loading reads [%d,%d): %w", s.myRank, lo, hi, err)
	}
	fmt.Fprintf(s.stderr, "dibella: rank %d resident reads [%d,%d) = %s of %s global in %s\n",
		s.myRank, lo, hi, stats.FmtBytes(s.myStore.LocalBytes()),
		stats.FmtBytes(seq.StatsFromLens(s.lens).TotalBases), time.Since(t0).Round(time.Millisecond))
	return distRank, nil
}

// writeRunArtifacts exports the Chrome trace and the per-rank metrics of
// the whole run: in -dist mode every worker writes its own rank's slice
// into a rank-suffixed file, in-process mode one file with all ranks. It
// runs after failed and drained runs too — their trace and metrics are the
// only artifact such a run leaves — and always attempts both files.
func (s *session) writeRunArtifacts() error {
	var errs []error
	if s.traceOut != "" {
		path := s.traceOut + s.rankSuffix()
		label := fmt.Sprintf("dibella %s procs=%d", s.job.Mode, s.procs)
		if err := trace.WriteFile(path, func(w io.Writer) error {
			return trace.WriteChromeTrace(w, s.tracer, label)
		}); err != nil {
			errs = append(errs, fmt.Errorf("-trace: %w", err))
		} else {
			s.logf("dibella: trace -> %s\n", path)
		}
	}
	if s.metrics != "" {
		var rows []trace.RankMetrics
		for _, rk := range s.localRanks() {
			rows = append(rows, rt.TraceRow(rk, s.world.Metrics(rk), s.tracer.Rank(rk)))
		}
		if err := trace.WriteMetricsFile(s.metrics, s.rankSuffix(), rows, trace.WriteMetricsCSV, trace.WriteMetricsJSON); err != nil {
			errs = append(errs, fmt.Errorf("-metrics: %w", err))
		} else {
			s.logf("dibella: metrics -> %s%s\n", s.metrics, s.rankSuffix())
		}
	}
	return errors.Join(errs...)
}

// parsePlacement resolves the -placement flag into a rank→slot permutation
// for p ranks: "" or "identity" → nil (identity), "reverse" → the reversed
// order, otherwise an explicit comma-separated slot list. Everything but
// identity is validated as a permutation.
func parsePlacement(s string, p int) ([]int, error) {
	var pl []int
	switch s {
	case "", "identity":
		return nil, nil
	case "reverse":
		pl = make([]int, p)
		for q := range pl {
			pl[q] = p - 1 - q
		}
	default:
		parts := strings.Split(s, ",")
		if len(parts) != p {
			return nil, fmt.Errorf("placement lists %d slots for %d ranks", len(parts), p)
		}
		pl = make([]int, p)
		for i, part := range parts {
			v, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				return nil, fmt.Errorf("slot %d: %w", i, err)
			}
			pl[i] = v
		}
	}
	if _, err := topo.New(p, 0, pl); err != nil {
		return nil, err
	}
	return pl, nil
}
