package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"gnbody/internal/dist"
	"gnbody/internal/overlap"
	"gnbody/internal/par"
	"gnbody/internal/partition"
	"gnbody/internal/rt"
	"gnbody/internal/seq"
	"gnbody/internal/sim"
	"gnbody/internal/transport"
)

// Tests that pin the shape of the read-exchange path: how much it
// allocates per byte it moves, who owns an RPC response and for how long,
// and what a rank does with a peer's bytes it cannot use.

// crossWorkload is nReads random reads of readLen bases over p ranks, with
// one task per read pairing it with the read half the set away, run by the
// owner of the task's first read — so every task is remote and every read
// is fetched exactly once by one other rank. The assignment is spelled out
// rather than left to partition.AssignTasks, which would run both tasks of
// a pair on one rank and fetch one read of the two.
func crossWorkload(t testing.TB, nReads, readLen, p int) (*seq.ReadSet, []int32, *partition.Partition, [][]overlap.Task) {
	t.Helper()
	rng := rand.New(rand.NewSource(41))
	seqs := make([]seq.Seq, nReads)
	for i := range seqs {
		seqs[i] = make(seq.Seq, readLen+rng.Intn(readLen/4))
		for j := range seqs[i] {
			seqs[i][j] = seq.Base(rng.Intn(4))
		}
	}
	reads := seq.NewReadSet(seqs)
	lens := make([]int32, nReads)
	lensInt := make([]int, nReads)
	for i := range lens {
		lens[i], lensInt[i] = int32(len(seqs[i])), len(seqs[i])
	}
	pt, err := partition.BySize(lensInt, p)
	if err != nil {
		t.Fatal(err)
	}
	var tasks []overlap.Task
	for i := 0; i < nReads/2; i++ {
		a, b := seq.ReadID(i), seq.ReadID(i+nReads/2)
		if pt.Owner(a) == pt.Owner(b) {
			continue
		}
		tasks = append(tasks, overlap.Task{A: a, B: b, Seed: overlap.Seed{K: 15}},
			overlap.Task{A: b, B: a, Seed: overlap.Seed{K: 15}})
	}
	if len(tasks) < nReads/2 {
		t.Fatalf("only %d cross-rank tasks over %d reads", len(tasks), nReads)
	}
	byRank := make([][]overlap.Task, p)
	for _, task := range tasks {
		byRank[pt.Owner(task.A)] = append(byRank[pt.Owner(task.A)], task)
	}
	return reads, lens, pt, byRank
}

// TestExchangeAllocationGuard: on dist over the loopback fabric with a
// no-op executor and the cache off, a pass allocates a small multiple of
// the bases it fetches, counted as the byte-per-base payload requesters
// plan for (seq.WireSizeOf; the packed wire carries about a quarter of
// it). The BSP pass allocates its exactly-sized pack buffer and the
// fabric's one snapshot per frame, both packed, and the decode buffers:
// 0.6x. The async pass reuses the handler's response buffer, the response
// frames and the decode buffers, so it allocates only as many of each as
// callbacks nest deep: 0.7x. The per-base append, the joined alltoallv
// frame and the unrecycled responses this replaces cost 7.3x and 5.4x.
func TestExchangeAllocationGuard(t *testing.T) {
	const p = 2
	reads, lens, pt, byRank := crossWorkload(t, 400, 20_000, p)
	world, err := dist.NewWorld(dist.Config{P: p})
	if err != nil {
		t.Fatal(err)
	}
	defer world.Close()
	stores := make([]seq.Store, p)
	for rk := range stores {
		lo, hi := pt.Range(rk)
		if stores[rk], err = seq.NewSliceStore(lo, reads.Reads[lo:hi], lens); err != nil {
			t.Fatal(err)
		}
	}
	var planned float64
	for rk, tasks := range byRank {
		fetched := make(map[seq.ReadID]bool)
		for _, task := range tasks {
			for _, id := range []seq.ReadID{task.A, task.B} {
				if pt.Owner(id) != rk && !fetched[id] {
					fetched[id] = true
					planned += float64(seq.WireSizeOf(int(lens[id])))
				}
			}
		}
	}
	pass := func(mode string) (allocated, received float64) {
		var errs [p]error
		body := func(r rt.Runtime) {
			st := stores[r.Rank()]
			in := &Input{Part: pt, Lens: lens, Tasks: byRank[r.Rank()], Codec: RealCodec{Store: st}, Store: st}
			_, errs[r.Rank()] = Run(mode, r, in, Config{Exec: NoopExecutor{}})
		}
		world.ResetMetrics()
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		if err := world.Run(body); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&m1)
		for rk, err := range errs {
			if err != nil {
				t.Fatalf("%s rank %d: %v", mode, rk, err)
			}
			received += float64(world.Metrics(rk).BytesRecv)
		}
		return float64(m1.TotalAlloc - m0.TotalAlloc), received
	}
	for _, tc := range []struct {
		mode  string
		limit float64
	}{{"bsp", 3}, {"async", 2}} {
		pass(tc.mode) // warm the fabric's frame pool, as a resident world is
		allocated, received := pass(tc.mode)
		if received < 1<<20 {
			t.Fatalf("%s: only %.0f payload bytes received; the guard is vacuous", tc.mode, received)
		}
		ratio := allocated / planned
		t.Logf("%s: %.0f bytes allocated for %.0f planned, %.0f received (%.2fx)", tc.mode, allocated, planned, received, ratio)
		if ratio > tc.limit {
			t.Errorf("%s pass allocated %.2fx the payload it planned, limit %.1fx", tc.mode, ratio, tc.limit)
		}
	}
}

// poisonFabric wraps every endpoint of a loopback fabric so that a recycled
// frame is overwritten before it returns to the pool: whoever still reads a
// response after handing it back sees 0xDB, not the bytes it was sent.
type poisonTP struct{ transport.Transport }

func (p poisonTP) RecycleFrame(frame []byte) {
	for i := range frame {
		frame[i] = 0xDB
	}
	p.Transport.(transport.FrameRecycler).RecycleFrame(frame)
}

func (p poisonTP) SendV(dst int, hdr, body []byte) error {
	return p.Transport.(transport.VectorSender).SendV(dst, hdr, body)
}

// TestCallbackMustNotRetainResponse pins the AsyncCall ownership rule from
// both sides. A handler may rebuild every response in one buffer: on sim
// and dist alike the runtime snapshots it before the handler runs again, so
// each callback sees its own answer. And a callback's response is the
// runtime's again once the callback returns: sim happens to leave it alone,
// dist hands the frame back to the fabric — shown here by a recycler that
// poisons what it is given. The in-process par world is a loopback dist
// world, so the dist row covers it.
func TestCallbackMustNotRetainResponse(t *testing.T) {
	const p, calls = 2, 40
	body := func(kept *[][]byte, bad *error) func(r rt.Runtime) {
		return func(r rt.Runtime) {
			var resp []byte // one buffer for every response this rank serves
			r.Serve(func(req []byte) []byte {
				resp = append(resp[:0], req...)
				for i := range resp {
					resp[i] ^= 0x55
				}
				return resp
			})
			wait := r.SplitBarrier()
			wait()
			if r.Rank() == 0 {
				for c := 0; c < calls; c++ {
					req := bytes.Repeat([]byte{byte(c)}, 64+c)
					want := bytes.Repeat([]byte{byte(c) ^ 0x55}, 64+c)
					r.AsyncCall(1, req, func(val []byte) {
						if !bytes.Equal(val, want) && *bad == nil {
							*bad = errors.New("a callback saw another call's response")
						}
						*kept = append(*kept, val) // against the rule, to see what becomes of it
					})
				}
				r.Drain(0)
			}
			r.Barrier()
		}
	}
	intact := func(kept [][]byte) int {
		n := 0
		for c, val := range kept {
			if bytes.Equal(val, bytes.Repeat([]byte{byte(c) ^ 0x55}, 64+c)) {
				n++
			}
		}
		return n
	}

	t.Run("sim", func(t *testing.T) {
		var kept [][]byte
		var bad error
		eng, err := sim.NewEngine(sim.Config{Machine: sim.CoriKNL(), Nodes: 1, RanksPerNode: p, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		eng.Run(body(&kept, &bad))
		if bad != nil || len(kept) != calls || intact(kept) != calls {
			t.Errorf("sim: %v; %d of %d retained responses intact", bad, intact(kept), len(kept))
		}
	})
	t.Run("dist", func(t *testing.T) {
		var kept [][]byte
		var bad error
		fabric := transport.NewLoopback(p)
		for i, ep := range fabric {
			fabric[i] = poisonTP{ep}
		}
		w, err := dist.NewWorldOver(fabric, dist.Config{})
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		if err := w.Run(body(&kept, &bad)); err != nil {
			t.Fatal(err)
		}
		if bad != nil || len(kept) != calls {
			t.Fatalf("dist: %v; %d responses", bad, len(kept))
		}
		if n := intact(kept); n != 0 {
			t.Errorf("dist: %d of %d responses survived their callback: response frames are not being recycled", n, calls)
		}
	})
}

// faultyCodec is RealCodec on a rank that answers wrongly for one read:
// leaves it out of the payload ("omit"), packs it twice ("repeat"), or
// forges a billion-base count into its header ("forge").
type faultyCodec struct {
	RealCodec
	read  seq.ReadID
	fault string
}

func (c faultyCodec) Encode(dst []byte, id seq.ReadID) []byte {
	if id != c.read {
		return c.RealCodec.Encode(dst, id)
	}
	switch c.fault {
	case "repeat":
		return c.RealCodec.Encode(c.RealCodec.Encode(dst, id), id)
	case "forge":
		at := len(dst)
		dst = c.RealCodec.Encode(dst, id)
		binary.LittleEndian.PutUint32(dst[at+4:], 1<<30|binary.LittleEndian.Uint32(dst[at+4:])&(1<<31))
		return dst
	}
	return dst
}

// TestBSPRejectsShortOrRepeatedPayload: an owner that answers a request
// list with one read missing, or one read twice, used to cost the requester
// those tasks' hits — or run them twice — without a word. Now the requester
// returns an ExchangeError naming the owner and the read; a read whose
// header forges its base count is refused on the length vector's word,
// before anything is sized or unpacked from it. Every other rank
// finishes normally, and nobody hangs in the superstep's remaining
// collectives (the run is multi-superstep: the failed rank must keep
// serving).
func TestBSPRejectsShortOrRepeatedPayload(t *testing.T) {
	const p = 3
	reads, lens, pt, byRank := crossWorkload(t, 90, 600, p)
	// The victim read: one that rank 0 asks rank 1 for.
	victim := seq.ReadID(0)
	found := false
	for _, task := range byRank[0] {
		for _, id := range []seq.ReadID{task.A, task.B} {
			if pt.Owner(id) == 1 && !found {
				victim, found = id, true
			}
		}
	}
	if !found {
		t.Fatal("rank 0 fetches nothing from rank 1")
	}
	for _, tc := range []struct {
		name, fault, want string
	}{{"omitted", "omit", "missing"}, {"repeated", "repeat", "twice"}, {"forged length", "forge", "the length vector says"}} {
		t.Run(tc.name, func(t *testing.T) {
			world, err := par.NewWorld(par.Config{P: p, MemBudget: 8 << 10}) // several supersteps
			if err != nil {
				t.Fatal(err)
			}
			errs := make([]error, p)
			steps := make([]int, p)
			world.Run(func(r rt.Runtime) {
				lo, hi := pt.Range(r.Rank())
				st := seq.Scope(reads, lo, hi, lens)
				var codec Codec = RealCodec{Store: st}
				if r.Rank() == 1 {
					codec = faultyCodec{RealCodec{Store: st}, victim, tc.fault}
				}
				in := &Input{Part: pt, Lens: lens, Tasks: byRank[r.Rank()], Codec: codec, Store: st}
				var res *Result
				res, errs[r.Rank()] = RunBSP(r, in, Config{Exec: NoopExecutor{}})
				if res != nil {
					steps[r.Rank()] = res.Supersteps
				}
			})
			var xe *ExchangeError
			if !errors.As(errs[0], &xe) || xe.Rank != 0 || xe.From != 1 ||
				!strings.Contains(xe.Reason, tc.want) || !strings.Contains(xe.Reason, fmt.Sprintf("read %d ", victim)) {
				t.Errorf("rank 0 returned %v, want an ExchangeError from rank 1 saying read %d %s", errs[0], victim, tc.want)
			}
			for rk := 1; rk < p; rk++ {
				if errs[rk] != nil {
					t.Errorf("rank %d returned %v, want success", rk, errs[rk])
				}
				if steps[rk] < 2 {
					t.Errorf("rank %d ran %d supersteps; the test needs several", rk, steps[rk])
				}
			}
		})
	}
}

// lyingRequests wraps a runtime so that one rank's outgoing requests are
// rewritten: the BSP request list it sends a given peer, or every RPC
// request it issues.
type lyingRequests struct {
	rt.Runtime
	to     int
	mutate func([]byte) []byte
	a2a    int // Alltoallv calls seen
}

func (l *lyingRequests) Alltoallv(send [][]byte) [][]byte {
	if l.a2a%2 == 0 && len(send[l.to]) > 0 { // even calls carry request lists
		send = append([][]byte(nil), send...)
		send[l.to] = l.mutate(send[l.to])
	}
	l.a2a++
	return l.Runtime.Alltoallv(send)
}

func (l *lyingRequests) AsyncCall(owner int, req []byte, cb func([]byte)) {
	if owner == l.to {
		req = l.mutate(req)
	}
	l.Runtime.AsyncCall(owner, req, cb)
}

// TestDriversRejectBadRequests: a request a rank cannot answer — ragged,
// of an unknown kind, or for a read outside its partition — used to panic
// the rank that received it. Now that rank answers with nothing and returns
// an ExchangeError after the run's collectives; the liar gets one too (its
// payload came back short); the third rank never notices.
func TestDriversRejectBadRequests(t *testing.T) {
	const p = 3
	reads, lens, pt, byRank := crossWorkload(t, 90, 600, p)
	lo1, _ := pt.Range(1)
	outside := func(off int) func([]byte) []byte {
		return func(req []byte) []byte {
			bad := append([]byte(nil), req...)
			binary.LittleEndian.PutUint32(bad[off:], uint32(lo1)-1) // rank 0's read, asked of rank 1
			return bad
		}
	}
	ragged := func(req []byte) []byte { return append(append([]byte(nil), req...), 7) }
	for _, tc := range []struct {
		name, mode string
		mutate     func([]byte) []byte
		want       string
	}{
		{"bsp/ragged", "bsp", ragged, "ragged"},
		{"bsp/outside", "bsp", outside(0), "asked of the owner"},
		{"async/ragged", "async", ragged, "ragged"},
		{"async/outside", "async", outside(1), "asked of the owner"},
		{"async/unknown-op", "async", func(req []byte) []byte { return append([]byte{0x7f}, req[1:]...) }, "unknown request"},
		// 0x02 was the op code of a work-steal probe; no driver answers it.
		{"async/retired-op", "async", func(req []byte) []byte { return append([]byte{0x02}, req[1:]...) }, "unknown request"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			world, err := par.NewWorld(par.Config{P: p})
			if err != nil {
				t.Fatal(err)
			}
			errs := make([]error, p)
			world.Run(func(r rt.Runtime) {
				lo, hi := pt.Range(r.Rank())
				st := seq.Scope(reads, lo, hi, lens)
				in := &Input{Part: pt, Lens: lens, Tasks: byRank[r.Rank()], Codec: RealCodec{Store: st}, Store: st}
				rank := r.Rank()
				if rank == 0 {
					r = &lyingRequests{Runtime: r, to: 1, mutate: tc.mutate}
				}
				_, errs[rank] = Run(tc.mode, r, in, Config{Exec: NoopExecutor{}})
			})
			var xe *ExchangeError
			if !errors.As(errs[1], &xe) || xe.Rank != 1 || !strings.Contains(xe.Reason, tc.want) {
				t.Errorf("rank 1 returned %v, want an ExchangeError saying %q", errs[1], tc.want)
			} else if named := xe.From == 0; named != (tc.mode == "bsp") {
				// Only the BSP request list says who sent it.
				t.Errorf("rank 1's error names rank %d", xe.From)
			}
			if !errors.As(errs[0], &xe) {
				t.Errorf("rank 0 (whose request went unanswered) returned %v, want an ExchangeError", errs[0])
			}
			if errs[2] != nil {
				t.Errorf("rank 2 returned %v, want success", errs[2])
			}
		})
	}
}
