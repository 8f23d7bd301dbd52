package core

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"

	"gnbody/internal/align"
	"gnbody/internal/overlap"
	"gnbody/internal/rt"
	"gnbody/internal/seq"
	"gnbody/internal/trace"
)

// Config tunes the drivers.
type Config struct {
	Exec     Executor
	MinScore int // hits with Score >= MinScore are saved

	// MaxOutstanding caps in-flight AsyncCalls in the asynchronous driver
	// ("varying limits on outgoing requests", §4.3). Default 64.
	MaxOutstanding int

	// FetchBatch is how many same-owner remote reads one async RPC pulls.
	// Default 1 (the paper's per-read pull); larger values trade memory
	// for per-message amortisation (§5's aggregation knob).
	FetchBatch int

	// Cache is an optional caller-owned remote-read cache (DESIGN.md §3)
	// that lets fetched bases survive across Runs on the same rank: a read
	// an earlier Run left resident does not cross the wire again. Within
	// one Run each remote read is pulled once, so nil loses nothing there.
	// A cache must only ever be used by a single rank (it is unlocked by
	// design).
	Cache *ReadCache
}

func (cfg *Config) defaults() {
	if cfg.MaxOutstanding <= 0 {
		cfg.MaxOutstanding = 64
	}
	if cfg.FetchBatch <= 0 {
		cfg.FetchBatch = 1
	}
}

// mkHit materialises a saved alignment.
func mkHit(t overlap.Task, res align.Result) Hit {
	return Hit{A: t.A, B: t.B, Score: int32(res.Score),
		AStart: int32(res.AStart), AEnd: int32(res.AEnd),
		BStart: int32(res.BStart), BEnd: int32(res.BEnd), RC: t.Seed.RC}
}

// RunBSP executes the bulk-synchronous driver on one rank (§3.1): remote
// reads are pulled in one or more aggregated irregular all-to-alls, with
// superstep sizes chosen dynamically against the per-rank memory budget;
// every alignment waiting on a received read runs as the read is unpacked
// from the receive buffer. Collective: all ranks must call it.
func RunBSP(r rt.Runtime, in *Input, cfg Config) (*Result, error) {
	f, end, err := begin(r, in, &cfg)
	if err != nil {
		return nil, err
	}
	defer end()
	out, base, met := f.out, f.base, r.Metrics()
	var store *flatStore
	r.Timed(rt.CatOverhead, func() { store = buildFlatStore(in, r.Rank()) })
	out.LocalTasks = len(store.local)
	out.RemoteTasks = len(store.remote)
	out.RemoteReads = len(store.groups)

	// Tasks with both reads local need no exchange. BSP never nests task
	// loops (no completion callbacks), so one batcher serves the whole Run.
	bt, hits := f.s.level(0), &f.s.hits
	bt.loadFlat(store.local)
	bt.run(r, in, &cfg, 0, nil, false, hits, false)

	// Cache pre-pass: any remote read already resident (retained by an
	// earlier Run over the same world) runs its tasks now and drops out of
	// the exchange plan entirely — the superstep loop below only ever sees
	// the misses. One resident call per group is the fetch decision.
	groups := store.groups
	if f.cache != nil {
		misses := groups[:0:0]
		for _, g := range groups {
			if bases, ok := f.resident(g.read); ok {
				bt.loadFlat(store.tasksOf(g))
				bt.run(r, in, &cfg, g.read, bases, true, hits, false)
				f.unpin(g.read)
				continue
			}
			misses = append(misses, g)
		}
		groups = misses
	}

	// Supersteps: request remote reads in chunks that fit the memory
	// budget, exchange, compute while unpacking, repeat until no rank has
	// reads left to fetch. Without a budget one chunk holds every read.
	next := 0
	var ends []int // under a budget: each planned chunk's end in groups
	tb := r.Tracer()
	budget := r.MemBudget()
	if budget > 0 {
		budget -= base // the input partition occupies part of the budget
		if budget <= 0 {
			// The partition alone fills the budget: degrade to the
			// smallest possible superstep (one read per round) rather
			// than silently dropping the limit.
			budget = 1
		}
		groups, ends = planSupersteps(r, in, groups, budget)
	}
	// One decode buffer, sized for the longest read this rank will be sent,
	// serves every superstep's unpack loop. With the cache on each read
	// decodes into fresh bases instead, which the cache then owns.
	var dbuf seq.Seq
	if f.cache == nil {
		longest := 0
		for _, g := range groups {
			longest = max(longest, int(in.Lens[g.read]))
		}
		if cap(f.s.dbuf) < longest {
			f.s.dbuf = make(seq.Seq, 0, longest)
		}
		dbuf = f.s.dbuf
	}
	runs := make([][2]int, r.Size()) // per owner: its reads' index range in the chunk
	// f.err is this rank's first ExchangeError. A rank that has one stops
	// asking for reads but keeps entering every remaining superstep's
	// collectives — answering the peers it can — so nobody hangs, and
	// returns the error when the loop ends.
	fail := func(from int, reason string) {
		if f.err == nil {
			f.err = &ExchangeError{r.Rank(), from, reason}
			next = len(groups)
		}
	}
	for {
		tStep := tb.Now()
		end := len(groups)
		if k := out.Supersteps; k < len(ends) {
			end = ends[k]
		}
		if f.err != nil {
			end = next
		}
		chunk := groups[next:end]
		out.Supersteps++

		// Round trip 1: request lists (read IDs grouped by owner). The chunk
		// is sorted by read and an owner's partition is one contiguous id
		// range, so the reads asked of one owner are one run of the chunk.
		slices.SortFunc(chunk, func(x, y flatGroup) int { return cmp.Compare(x.read, y.read) })
		reqBytes := int64(4 * len(chunk))
		sendReq := make([][]byte, r.Size())
		clear(runs)
		for i := 0; i < len(chunk); {
			owner := in.Part.Owner(chunk[i].read)
			_, ownerHi := in.Part.Range(owner)
			j := i + 1
			for j < len(chunk) && int(chunk[j].read) < ownerHi {
				j++
			}
			req := make([]byte, 0, 4*(j-i))
			for _, g := range chunk[i:j] {
				req = binary.LittleEndian.AppendUint32(req, uint32(g.read))
			}
			sendReq[owner], runs[owner] = req, [2]int{i, j}
			i = j
		}
		out.WireFetches += len(chunk)
		r.Alloc(reqBytes)
		recvReq := r.Alltoallv(sendReq)

		// Round trip 2: aggregated read payloads back to requesters, each
		// packed into one of the scratch's buffers, grown at most once to
		// its exact size. They are in flight until this superstep's closing
		// Allreduce (runScratch).
		var payBytes int64
		sendPay := make([][]byte, r.Size())
		f.s.sending = true
		r.Timed(rt.CatOverhead, func() {
			k := 0
			for src, ids := range recvReq {
				if len(ids) == 0 {
					continue
				}
				if k == len(f.s.pay) {
					f.s.pay = append(f.s.pay, nil)
				}
				var bad string
				if f.s.pay[k], bad = encodeReads(f.s.pay[k], in, f.lo, f.hi, ids); bad != "" {
					fail(src, bad)
				}
				sendPay[src] = f.s.pay[k]
				payBytes += int64(len(sendPay[src]))
				k++
			}
		})
		r.Alloc(payBytes)
		recvPay := r.Alltoallv(sendPay)
		r.Free(reqBytes)

		var recvBytes int64
		for _, m := range recvPay {
			recvBytes += int64(len(m))
		}
		r.Alloc(recvBytes)
		out.ExchangeRecvBytes += recvBytes

		// Compute alignments as reads are unpacked from receive buffers. One
		// decode buffer serves the whole unpack: every task of a read runs
		// before the next read is decoded over it, and nothing below this
		// loop retains the sequence. Each owner must answer with exactly the
		// reads asked of it, in the order asked: a read left out would lose
		// its tasks' hits, a repeated one would run them twice.
		for src, buf := range recvPay {
			want := chunk[runs[src][0]:runs[src][1]]
			k := 0
			for len(buf) > 0 && f.err == nil {
				read, n, err := f.dec.decode(dbuf, buf)
				switch {
				case err != nil:
					fail(src, fmt.Sprintf("bad payload: %v", err))
				case k > 0 && read.ID == want[k-1].read:
					fail(src, fmt.Sprintf("read %d arrived twice", read.ID))
				case k == len(want):
					fail(src, fmt.Sprintf("unsolicited read %d", read.ID))
				case read.ID != want[k].read:
					fail(src, fmt.Sprintf("read %d missing from the payload (read %d in its place)", want[k].read, read.ID))
				}
				if f.err != nil {
					break
				}
				buf = buf[n:]
				// Retained for later reuse, pinned while this group's tasks
				// still reference the read.
				f.admit(read.ID, read.Seq, 1)
				bt.loadFlat(store.tasksOf(want[k]))
				bt.run(r, in, &cfg, read.ID, read.Seq, true, hits, false)
				f.unpin(read.ID)
				k++
			}
			if f.err == nil && k < len(want) {
				fail(src, fmt.Sprintf("read %d missing from the payload", want[k].read))
			}
		}
		r.Free(payBytes)
		r.Free(recvBytes)
		if ex := reqBytes + payBytes + recvBytes; ex > met.PeakExchange {
			met.PeakExchange = ex
		}

		if f.err == nil {
			next = end
		}
		remaining := r.Allreduce(int64(len(groups)-next), rt.OpSum)
		f.s.sending = false // every peer has unpacked this superstep
		tb.Span(trace.KindSuperstep, tStep, int64(len(chunk)))
		if remaining == 0 {
			break
		}
	}
	// Accumulate (not assign): metrics on a resident world add up across
	// Runs, and job-scoped reporting recovers per-Run counts by Sub-ing
	// snapshots.
	if f.err == nil {
		met.Supersteps += int64(out.Supersteps)
	}
	return f.finish()
}

// planSupersteps packs this rank's remote reads into memory-limited
// supersteps from the task table, so that every rank spreads its work
// evenly over the same rounds. One Allreduce agrees on the superstep
// count: the most any rank needs to fit its reads' planned bytes in budget
// (at least one read a round). Then the groups, heaviest first, each join
// the superstep with the fewest tasks that still has room for the read,
// opening a round past the agreed count only when none has
// (longest-processing-time first). A rank whose tasks sit on a few hub
// reads thus no longer runs them all in the first round while its peers
// trail theirs into the last. Sizes come from the replicated length
// vector, never from the remote reads themselves — residency forbids
// sizing a read this rank does not hold; exact for real/phantom wire
// sizes, a safe overestimate when the sender packs. It returns the groups
// in superstep order and each superstep's end in that order.
func planSupersteps(r rt.Runtime, in *Input, groups []flatGroup, budget int64) (ordered []flatGroup, ends []int) {
	slices.SortStableFunc(groups, func(x, y flatGroup) int { return cmp.Compare(y.end-y.start, x.end-x.start) })
	var total int64
	for _, g := range groups {
		total += int64(in.planSize(g.read))
	}
	steps := max(1, int(r.Allreduce(min(int64(len(groups)), (total+budget-1)/budget), rt.OpMax)))
	bytes, tasks := make([]int64, steps), make([]int32, steps)
	stepOf := make([]int, len(groups))
	for i, g := range groups {
		sz := int64(in.planSize(g.read))
		k := -1
		for j := range bytes {
			if (bytes[j] == 0 || bytes[j]+sz <= budget) && (k < 0 || tasks[j] < tasks[k]) {
				k = j
			}
		}
		if k < 0 {
			k = len(bytes)
			bytes, tasks = append(bytes, 0), append(tasks, 0)
		}
		bytes[k] += sz
		tasks[k] += g.end - g.start
		stepOf[i] = k
	}
	ends = make([]int, len(bytes))
	for _, k := range stepOf {
		ends[k]++
	}
	for k := 1; k < len(ends); k++ {
		ends[k] += ends[k-1]
	}
	ordered = make([]flatGroup, len(groups))
	at := append([]int{0}, ends[:len(ends)-1]...)
	for i, k := range stepOf {
		ordered[at[k]] = groups[i]
		at[k]++
	}
	return ordered, ends
}
