package main

import (
	"fmt"

	"gnbody/internal/align"
	"gnbody/internal/core"
	"gnbody/internal/overlap"
	"gnbody/internal/partition"
	"gnbody/internal/pipeline"
	"gnbody/internal/rt"
	"gnbody/internal/seq"
)

// exchange-tcp: the paper's communication-only mode (§4.3) with payload
// integrity checked. A Zipf-skewed task graph over 10 kb reads runs one
// BSP pass and one async pass over real loopback sockets; the executor
// does no alignment but folds both reads' bases into the hit score, so a
// payload damaged anywhere between the owner's store and the requester
// changes the output. The wire codec, the transport, the dist collectives
// and RPC engine and the core drivers do the work; align does none.

// checksumExecutor stands in for the alignment kernel: the "score" of a
// task is a checksum of every base of both reads. A read this rank owns
// never crossed the wire, so its fold comes from a table filled from the
// rank's store at set-up; a read that arrived as a payload is folded in
// full on every task that uses it.
type checksumExecutor struct {
	store seq.Store
	folds []uint64 // by read ID; filled for the reads the store owns
}

func newChecksumExecutor(store seq.Store) checksumExecutor {
	x := checksumExecutor{store: store, folds: make([]uint64, store.N())}
	lo, hi := store.Range()
	for id := lo; id < hi; id++ {
		x.folds[id] = fold(store.Get(seq.ReadID(id)).Seq)
	}
	return x
}

func (x checksumExecutor) foldOf(id seq.ReadID, s seq.Seq) uint64 {
	if x.store.Owns(id) {
		return x.folds[id]
	}
	return fold(s)
}

func (x checksumExecutor) Align(r rt.Runtime, t overlap.Task, a, b seq.Seq) (align.Result, bool) {
	var res align.Result
	r.Timed(rt.CatOverhead, func() { res.Score = foldScore(x.foldOf(t.A, a), x.foldOf(t.B, b)) })
	return res, true
}

// fold is a position-weighted checksum of a sequence: four interleaved
// lane sums and a running sum of them, so changing any one base changes it.
func fold(s seq.Seq) uint64 {
	var a0, a1, a2, a3, run uint64
	i := 0
	for ; i+4 <= len(s); i += 4 {
		q := s[i : i+4 : i+4]
		a0 += uint64(q[0])
		a1 += uint64(q[1])
		a2 += uint64(q[2])
		a3 += uint64(q[3])
		run += a0 + a1 + a2 + a3
	}
	for ; i < len(s); i++ {
		a0 += uint64(s[i]) + 1
		run += a0
	}
	return a0*3 + a1*5 + a2*7 + a3*11 + run*13 + uint64(len(s))
}

// foldScore turns the two reads' folds into a score in [1, 2^30].
func foldScore(fa, fb uint64) int { return 1 + int((fa*1_000_003+fb)%(1<<30)) }

// checksumScore is the score of a task from the sequences alone: the
// serial reference.
func checksumScore(a, b seq.Seq) int { return foldScore(fold(a), fold(b)) }

// alignPass runs one driver over a fixed per-rank task assignment,
// whatever the previous stage produced, so a stage list can price both
// coordination strategies on identical bytes.
type alignPass struct {
	mode  string // "bsp" or "async"; also the stage's name
	tasks [][]overlap.Task
	execs []checksumExecutor // per rank
}

func (s alignPass) Name() string { return s.mode }

func (s alignPass) Run(r rt.Runtime, pl *pipeline.Plan, store seq.Store, _ any) (any, error) {
	return pipeline.AlignStage{Mode: s.mode, MinScore: 1, Exec: s.execs[r.Rank()]}.
		Run(r, pl, store, s.tasks[r.Rank()])
}

// exchangeSpec only sizes the partition: no discovery runs here.
var exchangeSpec = pipeline.Spec{K: 17, Lo: 2, Hi: 8}

func runExchangeTCP(e *env) error {
	nReads := 4000
	if e.short {
		nReads = 60
	}
	wl, reads, err := exchangeGraph(e.seed, nReads)
	if err != nil {
		return err
	}
	fasta := e.dir + "/reads.fa"
	if err := writeFASTA(fasta, reads); err != nil {
		return err
	}

	// Serial reference: every task's checksum straight from the read set.
	ref := make([]core.Hit, len(wl.Tasks))
	for i, t := range wl.Tasks {
		ref[i] = core.Hit{A: t.A, B: t.B, RC: t.Seed.RC,
			Score: int32(checksumScore(reads.Get(t.A).Seq, reads.Get(t.B).Seq))}
	}
	want := hitsDigest(ref)
	fmt.Fprintf(e.report, "  input: %d reads, %d bases, %d tasks (%d between genomic neighbours, %d Zipf-skewed), hub degree %d\n",
		reads.Len(), reads.TotalBases(), len(wl.Tasks), wl.TrueTasks, wl.FalseTasks, maxDegree(wl.Tasks, reads.Len()))

	open := func() (*batch, error) {
		plan, stores, err := loadStores(fasta, exchangeSpec)
		if err != nil {
			return nil, err
		}
		byRank := partition.AssignTasks(wl.Tasks, plan.Part)
		execs := make([]checksumExecutor, ranks)
		for rk := range execs {
			execs[rk] = newChecksumExecutor(stores[rk])
		}
		plan.Stages = []pipeline.Stage{alignPass{"bsp", byRank, execs}, alignPass{"async", byRank, execs}}
		w, err := tcpWorld()
		if err != nil {
			return nil, err
		}
		return &batch{e: e, w: w, plan: plan, stores: stores, closeWorld: func() { w.Close() },
			check: func(runs []*pipeline.StageRun) error {
				for i, mode := range []string{"bsp", "async"} {
					if got := hitsDigest(stageHits(runs, i)); got != want {
						return fmt.Errorf("%s pass: hit digest %x differs from the serial reference %x", mode, got[:6], want[:6])
					}
				}
				return nil
			}}, nil
	}
	b, err := runBatch(e, 20, open)
	if err != nil {
		return err
	}
	defer b.close()
	if e.trace {
		e.set("overlap.tasks", float64(len(wl.Tasks)))
		if err := probeReads(e, fasta, reads, exchangeSpec, false); err != nil {
			return err
		}
		if err := probeExchangeGraph(e, wl, b); err != nil {
			return err
		}
		return probeLayers(e)
	}
	return nil
}

// maxDegree is the largest number of tasks any one read takes part in.
func maxDegree(tasks []overlap.Task, nReads int) int {
	deg := make([]int, nReads)
	var mx int
	for _, t := range tasks {
		deg[t.A]++
		deg[t.B]++
		mx = max(mx, deg[t.A], deg[t.B])
	}
	return mx
}
