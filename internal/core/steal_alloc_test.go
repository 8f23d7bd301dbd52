package core

import (
	"testing"
	"time"

	"gnbody/internal/partition"
	"gnbody/internal/rt"
	"gnbody/internal/seq"
	"gnbody/internal/trace"
)

// loopRT is a minimal synchronous runtime for exercising one rank's RPC
// paths in isolation: AsyncCall answers every request with a canned
// response, inline on the caller's goroutine. Only what the fetcher touches
// is implemented meaningfully; the one collective it never uses
// panics to catch accidental reliance.
type loopRT struct {
	m    rt.Metrics
	resp []byte
}

func (l *loopRT) Rank() int                                  { return 0 }
func (l *loopRT) Size() int                                  { return 2 }
func (l *loopRT) Barrier()                                   {}
func (l *loopRT) SplitBarrier() func()                       { return func() {} }
func (l *loopRT) Alltoallv([][]byte) [][]byte                { panic("loopRT: Alltoallv unused") }
func (l *loopRT) Allreduce(v int64, _ rt.Op) int64           { return v }
func (l *loopRT) Serve(func(req []byte) []byte)              {}
func (l *loopRT) AsyncCall(_ int, _ []byte, cb func([]byte)) { cb(l.resp) }
func (l *loopRT) Progress() bool                             { return false }
func (l *loopRT) Outstanding() int                           { return 0 }
func (l *loopRT) Drain(int)                                  {}
func (l *loopRT) Charge(rt.Category, time.Duration)          {}
func (l *loopRT) Timed(_ rt.Category, f func())              { f() }
func (l *loopRT) Alloc(int64)                                {}
func (l *loopRT) Free(int64)                                 {}
func (l *loopRT) MemBudget() int64                           { return 0 }
func (l *loopRT) Metrics() *rt.Metrics                       { return &l.m }
func (l *loopRT) Tracer() *trace.Buf                         { return nil }

// stealFetchHarness builds a 2-rank world where rank 0 (this rank) pulls
// read 1 from rank 1 through a cache-disabled fetcher. The response is
// pre-encoded once, so measurements see only the thief-side path.
func stealFetchHarness(t *testing.T, blen int) *fetcher {
	t.Helper()
	bases := make(seq.Seq, blen)
	for i := range bases {
		bases[i] = seq.Base(i & 3)
	}
	reads := seq.NewReadSet([]seq.Seq{make(seq.Seq, blen), bases})
	lens := []int32{int32(blen), int32(blen)}
	pt, err := partition.BySize([]int{blen, blen}, 2)
	if err != nil {
		t.Fatal(err)
	}
	st := seq.Scope(reads, 0, 1, lens)
	in := &Input{Part: pt, Lens: lens, Codec: RealCodec{Store: st}, Store: st}
	victim := RealCodec{Store: seq.Scope(reads, 1, 2, lens)}
	r := &loopRT{resp: victim.Encode(nil, 1)}
	f, _, err := begin(r, in, &Config{})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// stealFetchGot records the last sink delivery; the sink is a package
// function (not a closure) so the guard below measures fetch itself.
var stealFetchGot struct {
	ptr *seq.Base
	n   int
}

func stealFetchSink(s seq.Seq, ok bool) {
	if !ok {
		panic("fetch failed")
	}
	stealFetchGot.n = len(s)
	if len(s) > 0 {
		stealFetchGot.ptr = &s[0]
	}
}

// TestStealFetchAllocFree pins the thief-side pull path of the steal
// driver: with a warm fetcher, a transient fetch performs no per-base
// allocation — the payload decodes into the pooled scratch buffer instead
// of a fresh bases copy per stolen-task fetch. The two allocations left
// are the encoded request and the completion closure, both O(1) in read
// length; the request's waiter list is recycled.
func TestStealFetchAllocFree(t *testing.T) {
	fc := stealFetchHarness(t, 32<<10)
	fetchOnce := func() { fc.fetch(waiter{id: 1, cb: stealFetchSink}) }
	fetchOnce() // warm the scratch pool
	allocs := testing.AllocsPerRun(100, fetchOnce)
	if allocs > 2 {
		t.Errorf("transient steal fetch: %.1f allocs/op, want <= 2 (request + closure only)", allocs)
	}
	if stealFetchGot.n != 32<<10 {
		t.Fatalf("fetched %d bases, want %d", stealFetchGot.n, 32<<10)
	}
}

// TestStealFetchScratchReuse pins the buffer lifecycle: consecutive
// transient fetches decode into the same pooled buffer; a retained fetch
// takes the buffer out of the pool with the bases and release returns it.
func TestStealFetchScratchReuse(t *testing.T) {
	fc := stealFetchHarness(t, 4096)
	fc.fetch(waiter{id: 1, cb: stealFetchSink})
	if stealFetchGot.n != 4096 {
		t.Fatalf("fetched %d bases, want 4096", stealFetchGot.n)
	}
	first := stealFetchGot.ptr
	fc.fetch(waiter{id: 1, cb: stealFetchSink})
	if stealFetchGot.ptr != first {
		t.Error("transient fetch did not reuse the scratch buffer")
	}

	var held seq.Seq
	fc.fetch(waiter{id: 1, retain: true, cb: func(s seq.Seq, ok bool) {
		if !ok {
			t.Fatal("retained fetch failed")
		}
		held = s
	}})
	if &held[0] != first {
		t.Error("retained fetch did not draw from the scratch pool")
	}
	fc.fetch(waiter{id: 1, cb: stealFetchSink})
	if stealFetchGot.ptr == first {
		t.Error("pool handed out a buffer still owned by a retained fetch")
	}
	fc.release(1, held)
	fc.fetch(waiter{id: 1, cb: stealFetchSink})
	if stealFetchGot.ptr != &held[0] {
		t.Error("release did not return the retained buffer to the pool")
	}
}
